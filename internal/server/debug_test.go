package server

import (
	"io"
	"net/http"
	"testing"
)

// TestServeDebugOnItsOwnListener holds pprof to the debug listener:
// ServeDebug answers /debug/pprof/cmdline on the address it binds until
// stopped (and serves nothing for an empty one), and the query handler
// answers 404 at /debug/pprof/.
func TestServeDebugOnItsOwnListener(t *testing.T) {
	if rec, _ := get(t, testHandler(t), "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Fatalf("query handler /debug/pprof/: status %d, want 404", rec.Code)
	}
	if a, stop, err := ServeDebug(""); a != nil || err != nil || stop() != nil {
		t.Fatalf("ServeDebug(\"\") = %v, %v: want nothing served", a, err)
	}
	a, stop, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + a.String() + "/debug/pprof/cmdline"
	resp, err := http.Get(url)
	if err != nil {
		stop()
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("debug listener %s: status %d, %d bytes", url, resp.StatusCode, len(body))
	}
	if _, err := http.Get(url); err == nil {
		t.Fatal("the debug listener still answers after stop")
	}
}
