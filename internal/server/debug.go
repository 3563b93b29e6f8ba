package server

import (
	"net"
	"net/http"
	_ "net/http/pprof"
	"time"
)

// ServeDebug serves net/http/pprof (on DefaultServeMux, which nothing else
// here serves) on a listener of its own at addr, none for an empty addr; its
// stop closes the listener and waits for the serving goroutine.
func ServeDebug(addr string) (net.Addr, func() error, error) {
	if addr == "" {
		return nil, func() error { return nil }, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: http.DefaultServeMux, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() { srv.Serve(ln); close(done) }() // Serve returns once stop closes srv
	return ln.Addr(), func() error { err := srv.Close(); <-done; return err }, nil
}
