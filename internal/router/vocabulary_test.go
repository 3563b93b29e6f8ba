package router

import (
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	simrank "repro"
	"repro/internal/server"
	"repro/internal/wire"
)

// fillDistinct sets every field of the struct p points at to a distinct
// non-zero value, by reflection, so a field added to a payload type is in
// the test the day it is added.
func fillDistinct(t *testing.T, p any) {
	t.Helper()
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Uint8, reflect.Uint32:
			f.SetUint(uint64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i+1) / 8)
		default:
			t.Fatalf("%s.%s: no filler for kind %s", v.Type(), v.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestPayloadFieldsSurviveBothEncodings is the guard on the one-definition
// vocabulary: every field of QueryStats and ShardCand, filled with
// distinct values, must reach the router's merge view unchanged through
// both encodings a shard answers in — the JSON bodies of server's /shard/*
// endpoints and the binary frames. JSON follows the struct by
// construction; the frame codec lists fields by hand (wire.statsFields,
// the candidate rows), so a field added to core and not to the codec
// fails here.
func TestPayloadFieldsSurviveBothEncodings(t *testing.T) {
	var stats simrank.QueryStats
	var cand simrank.ShardCand
	fillDistinct(t, &stats)
	fillDistinct(t, &cand)
	frag := []simrank.ShardCand{cand}

	viaJSON := func(op shardOp, payload any) *reply {
		t.Helper()
		body, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		rp := new(reply)
		if err := op.decodeJSON(body, rp); err != nil {
			t.Fatal(err)
		}
		return rp
	}
	viaFrame := func(op shardOp, data []byte) *reply {
		t.Helper()
		rp := new(reply)
		if err := rp.frame.Parse(data); err != nil {
			t.Fatal(err)
		}
		if err := op.decodeFrame(&rp.frame, rp); err != nil {
			t.Fatal(err)
		}
		return rp
	}
	one := server.ShardTopKResponse{Query: 1, Frag: frag, Stats: &stats}
	oneFrame := wire.AppendTopKResp(nil, &wire.TopKResp{Query: 1, Stats: stats, Frag: frag})
	similar := similarOp{topkOp{u: 1}, 0.5}
	for label, rp := range map[string]*reply{
		"topk json":     viaJSON(topkOp{u: 1}, one),
		"topk frame":    viaFrame(topkOp{u: 1}, oneFrame),
		"similar json":  viaJSON(similar, one),
		"similar frame": viaFrame(similar, oneFrame),
	} {
		if len(rp.frag) != 1 || rp.frag[0] != cand {
			t.Errorf("%s: fragment %+v, want [%+v]", label, rp.frag, cand)
		}
		if rp.stats != stats {
			t.Errorf("%s: stats %+v, want %+v", label, rp.stats, stats)
		}
	}
}

// TestThetaValidatedOnBothTiers: a threshold outside (0, 1] — NaN above
// all, which passes every plain range comparison and then disables the
// scan's pruning — is a 400 bad_request on every endpoint that takes one,
// on the stand-alone server and behind the router alike.
func TestThetaValidatedOnBothTiers(t *testing.T) {
	idx := buildIndex(t)
	rt, _ := loopback(t, idx, 2, Config{})
	single := server.New(idx)
	for _, theta := range []string{"NaN", "nan", "Inf", "0", "1.5"} {
		for _, tc := range []struct {
			tier string
			h    http.Handler
			path string
		}{
			{"server", single, "/similar?u=5&theta="},
			{"server", single, "/join?max=5&theta="},
			{"server", single, "/shard/similar?u=5&theta="},
			{"router", rt, "/similar?u=5&theta="},
		} {
			rec, body := routerGet(t, tc.h, tc.path+theta)
			var er server.ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatalf("%s %s%s: status %d, body not a JSON error: %q", tc.tier, tc.path, theta, rec.Code, body)
			}
			if rec.Code != http.StatusBadRequest || er.Code != server.CodeBadRequest {
				t.Errorf("%s %s%s: status %d code %q, want 400 %s", tc.tier, tc.path, theta, rec.Code, er.Code, server.CodeBadRequest)
			}
		}
	}
}
