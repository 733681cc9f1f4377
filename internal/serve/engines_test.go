package serve

import (
	"context"
	"testing"
	"time"

	"github.com/reversible-eda/rcgp/internal/cec"
	"github.com/reversible-eda/rcgp/internal/obs"
)

// TestServerEngineMetricsRoster: a portfolio-configured server must expose
// the full rcgp_cec_engine_* counter roster on its registry after a job —
// even one that stayed in the exhaustive oracle regime and never raced —
// so dashboards see stable metric families from the first scrape.
func TestServerEngineMetricsRoster(t *testing.T) {
	reg := obs.NewRegistry()
	_, c := newTestServer(t, Config{Registry: reg, CECPortfolio: 2})
	ctx := context.Background()
	j, err := c.Submit(ctx, fullAdder)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, j.ID, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	cfg := cec.PortfolioConfig{Provers: 2}
	for _, name := range cfg.EngineNames() {
		for _, suffix := range []string{"_wins", "_proved", "_refuted", "_unknown"} {
			if _, ok := snap.Counters["cec.engine_"+name+suffix]; !ok {
				t.Errorf("counter cec.engine_%s%s not registered", name, suffix)
			}
		}
	}
	for _, e := range []string{"sat", "bdd"} {
		if w := snap.Counters["cec.engine_"+e+"_wins"]; w != 0 {
			t.Errorf("an exhaustive-regime job must record no %s wins, got %d", e, w)
		}
	}
}
