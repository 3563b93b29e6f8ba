package core

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/graph"
)

// FuzzLoadIndex checks the persisted-index loader against corrupt input:
// it must never panic or accept an index that breaks queries.
func FuzzLoadIndex(f *testing.F) {
	g := graph.CopyingModel(60, 4, 0.3, 1)
	p := DefaultParams()
	p.Workers = 1
	p.RAlpha = 100
	e := Build(g, p)
	var valid bytes.Buffer
	if err := e.SaveIndex(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add(valid.Bytes()[:10])
	flipped := append([]byte(nil), valid.Bytes()...)
	if len(flipped) > 40 {
		flipped[33] ^= 0xff
	}
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, input []byte) {
		e2, err := LoadIndex(g, p, bytes.NewReader(input))
		if err != nil {
			return
		}
		// Whatever loads must answer queries without panicking and
		// with well-formed results.
		res := e2.TopK(3, 5)
		if len(res) > 5 {
			t.Fatalf("loaded index returned %d results", len(res))
		}
		for i := 1; i < len(res); i++ {
			if res[i].Score > res[i-1].Score {
				t.Fatal("loaded index returned unsorted results")
			}
		}
	})
}

// FuzzWalkDistDirectory builds both directory kinds over one arbitrary id
// set below an arbitrary n and holds each to a binary search of the sorted
// set on every id below n, hit or miss: the kind is chosen by density in
// production, but either must be right for any support.
func FuzzWalkDistDirectory(f *testing.F) {
	f.Add(uint16(0), []byte{0, 0})
	f.Add(uint16(63), []byte{0, 0, 0, 62, 0, 63})
	f.Add(uint16(64), []byte{0, 64, 0, 0, 0, 63, 0, 64})
	f.Add(uint16(999), []byte{3, 231, 0, 0, 1, 0, 1, 1, 2, 0, 2, 0})
	f.Add(uint16(4095), bytes.Repeat([]byte{7, 9, 15, 255, 0, 1, 8, 0}, 40))
	f.Add(uint16(65535), []byte{255, 255, 128, 0, 0, 31, 0, 32, 0, 33})
	dense := make([]byte, 0, 2*300)
	for i := 0; i < 300; i++ { // every id below 300, highest first
		dense = append(dense, byte((299-i)>>8), byte(299-i))
	}
	f.Add(uint16(299), dense)
	f.Fuzz(func(t *testing.T, top uint16, ids []byte) {
		n := int(top) + 1
		s := newScratch(n)
		s.beginTally()
		for ; len(ids) >= 2; ids = ids[2:] {
			s.tallyCount(uint32(int(ids[0])<<8|int(ids[1])) % uint32(n))
		}
		if len(s.touched) == 0 {
			return // a step without support has no directory
		}
		want := slices.Clone(s.touched)
		slices.Sort(want)
		var wd walkDist
		wd.reset(2, true)
		wd.setRankSupport(0, n, s.touched)
		wd.setBucketSupport(1, s)
		for step, kind := range []string{"rank", "bucket"} {
			if !slices.Equal(wd.verts[step], want) || wd.dense(step) != (step == 0) {
				t.Fatalf("n=%d %s: support %v, want %v", n, kind, wd.verts[step], want)
			}
			for w := uint32(0); w < uint32(n); w++ {
				i, found := slices.BinarySearch(want, w)
				if !found {
					i = -1
				}
				if got := wd.lookup(step, w); got != i {
					t.Fatalf("n=%d %s: lookup(%d) = %d, binary search = %d (support %v)", n, kind, w, got, i, want)
				}
			}
		}
	})
}
