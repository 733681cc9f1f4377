package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/reversible-eda/rcgp/client"
	"github.com/reversible-eda/rcgp/internal/obs"
)

// TestCoordinatorCloseStopsFanOut: replication fan-outs still in flight
// when the coordinator closes must be canceled and waited for, so nothing
// posts or logs after Close returns. The stub runner answers every push
// with a 500 after 150 ms — a fan-out that outlived Close would log that
// failure late.
func TestCoordinatorCloseStopsFanOut(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(150 * time.Millisecond)
		http.Error(w, "busy", http.StatusInternalServerError)
	}))
	defer stub.Close()

	var mu sync.Mutex
	closed := false
	var late []string
	co := NewCoordinator(CoordinatorConfig{
		HeartbeatEvery: time.Hour, // keep the supervisor out of the way
		Registry:       obs.NewRegistry(),
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			if closed {
				late = append(late, fmt.Sprintf(format, args...))
			}
		},
	})
	if _, err := co.Register(registerRequest{ID: "stub", URL: stub.URL}); err != nil {
		t.Fatal(err)
	}
	co.PublishEntry(publishRequest{Runner: "origin", Entry: client.CacheEntry{Key: "k1", NumPI: 1, NumPO: 1}})
	co.PublishTemplate(templatePublishRequest{Runner: "origin", Entry: client.TemplateEntry{Key: "t1", NumPI: 1, NumPO: 1, Gates: 1}})
	co.Close()
	mu.Lock()
	closed = true
	mu.Unlock()

	// A leaked fan-out would log once the stub answers; absence can only be
	// observed by waiting past that answer.
	time.Sleep(300 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(late) > 0 {
		t.Fatalf("%d log lines after Close returned: %q", len(late), late)
	}
}
