package main

import (
	"net/http"
	"testing"
	"time"
)

// TestHTTPServerLimits pins the daemon's connection limits: every
// timeout is set, so no client can hold a connection open by sending
// slowly, and header size is capped.
func TestHTTPServerLimits(t *testing.T) {
	srv := newHTTPServer(":0", http.NotFoundHandler())
	for _, c := range []struct {
		name      string
		got, want time.Duration
	}{
		{"ReadHeaderTimeout", srv.ReadHeaderTimeout, 5 * time.Second},
		{"ReadTimeout", srv.ReadTimeout, 30 * time.Second},
		{"WriteTimeout", srv.WriteTimeout, 30 * time.Second},
		{"IdleTimeout", srv.IdleTimeout, 2 * time.Minute},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if srv.MaxHeaderBytes != 64<<10 {
		t.Errorf("MaxHeaderBytes = %d, want %d", srv.MaxHeaderBytes, 64<<10)
	}
}
