package main

import (
	"net/http"
	"testing"
	"time"
)

// TestNewServerTimesOutSlowReaders: both listeners bound how long a
// client may take to send its headers and its request, and leave
// writes unbounded so that event streams can follow a job to its end.
func TestNewServerTimesOutSlowReaders(t *testing.T) {
	hs := newServer("127.0.0.1:0", http.NotFoundHandler())
	if hs.Addr != "127.0.0.1:0" || hs.Handler == nil {
		t.Errorf("newServer: Addr %q, Handler %v", hs.Addr, hs.Handler)
	}
	if hs.ReadHeaderTimeout != 10*time.Second || hs.ReadTimeout != time.Minute {
		t.Errorf("read timeouts: header %v, request %v; want 10s and 1m", hs.ReadHeaderTimeout, hs.ReadTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Errorf("WriteTimeout %v, want unset", hs.WriteTimeout)
	}
}
