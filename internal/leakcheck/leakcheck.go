// Package leakcheck fails a test that leaves goroutines running. The
// daemon and coordinator tests use it on their cancel, deadline, drain
// and failover paths: a runner or connection that outlives its job
// there would pile up in a long-running process.
package leakcheck

import (
	"net/http"
	"runtime"
	"testing"
	"time"
)

// Check records how many goroutines are running and, when the test
// ends, waits up to two seconds for the count to fall back to that
// number. Call it before the test starts its servers: cleanups run
// last-registered first, so theirs (close the listener, drain the
// runners and Wait for them) finish before this one counts. It closes
// the default transport's idle connections first, since each keeps a
// read and a write goroutine alive.
func Check(t testing.TB) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				buf = buf[:runtime.Stack(buf, true)]
				t.Errorf("leakcheck: %d goroutines before the test, %d after it:\n%s",
					before, runtime.NumGoroutine(), buf)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}
