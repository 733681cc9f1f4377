package fleet

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/reversible-eda/rcgp/client"
	"github.com/reversible-eda/rcgp/internal/obs"
	"github.com/reversible-eda/rcgp/internal/serve"
)

// forget pushes a finished job out of its runner's table with cache hits
// submitted straight to the runner, each finishing in well under a
// millisecond, and checks that the runner now answers 404 for it.
func forget(t *testing.T, tr *testRunner, id string) {
	t.Helper()
	hit := client.Request{NumInputs: 2, TruthTables: []string{"8"}, Generations: 100}
	for pushed := 0; pushed < 1100; {
		var batch []string
		for ; len(batch) < 200; pushed++ {
			j, err := tr.srv.Submit(hit)
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, j.ID)
		}
		for _, b := range batch {
			waitServe(t, tr.srv, b)
		}
	}
	if _, err := tr.srv.Job(id); !errors.Is(err, serve.ErrNotFound) {
		t.Fatalf("runner still remembers job %s (err %v)", id, err)
	}
}

// A runner remembers only its newest finished jobs. Here a fleet job
// finishes and is pushed out of its runner's table by cache-hit traffic
// before the coordinator ever polls it. The client then follows the job's
// progress stream: the relay's 404 must send the job back through the
// orphan path (onto the same runner, the only one), and it must still
// reach exactly one verified terminal result, bit-identical to an
// undisturbed run with the same seed.
func TestFleetJobForgottenBeforePoll(t *testing.T) {
	req := client.Request{
		NumInputs:   3,
		TruthTables: []string{"96", "e8"},
		Generations: 3000,
		Seed:        11,
		NoCache:     true, // the rerun must search again, not hit the cache
	}
	ctx := context.Background()

	refSrv := serve.New(serve.Config{Registry: obs.NewRegistry()})
	defer func() {
		c, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		refSrv.Close(c)
	}()
	refJob, err := refSrv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ref := waitServe(t, refSrv, refJob.ID)
	if ref.Status != client.StatusDone || !ref.Result.Verified {
		t.Fatalf("reference run %+v", ref)
	}

	f := newFleet(t, 1, serve.Config{CheckpointEvery: 500})
	tr := f.runners[0]
	j, err := f.c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	local := tr.srv.Jobs()
	if len(local) != 1 {
		t.Fatalf("runner holds %d jobs, want 1", len(local))
	}
	if rj := waitServe(t, tr.srv, local[0].ID); rj.Status != client.StatusDone {
		t.Fatalf("runner-side job finished %q", rj.Status)
	}

	forget(t, tr, local[0].ID)

	wctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	done, err := f.c.Watch(wctx, j.ID, nil)
	if err != nil {
		t.Fatalf("forgotten job never finished: %v", err)
	}
	if done.Status != client.StatusDone || done.Result == nil || !done.Result.Verified {
		t.Fatalf("forgotten job ended %+v (error %q)", done, done.Error)
	}
	if done.Result.Netlist != ref.Result.Netlist || done.Result.Stats != ref.Result.Stats ||
		done.Result.Generations != ref.Result.Generations {
		t.Fatalf("rerun differs from the undisturbed run: stats %+v gens %d vs %+v gens %d",
			done.Result.Stats, done.Result.Generations, ref.Result.Stats, ref.Result.Generations)
	}
	again, err := f.c.Job(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if again.Status != done.Status || again.Result.Netlist != done.Result.Netlist {
		t.Fatalf("terminal result changed on a later poll: %+v", again)
	}
	for name, want := range map[string]int64{"fleet.jobs_finished": 1, "fleet.orphans": 1, "fleet.handoffs": 1} {
		if got := f.coReg.Counter(name).Load(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// A job the client canceled and its runner then forgot ends canceled: the
// 404 must not run it again.
func TestFleetCanceledJobForgottenStaysCanceled(t *testing.T) {
	f := newFleet(t, 1, serve.Config{})
	ctx := context.Background()
	j, err := f.c.Submit(ctx, client.Request{
		NumInputs: 3, TruthTables: []string{"96", "e8"}, Generations: 2000000, Seed: 9, NoCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.c.Cancel(ctx, j.ID); err != nil {
		t.Fatal(err)
	}
	tr := f.runners[0]
	local := tr.srv.Jobs()
	if len(local) != 1 {
		t.Fatalf("runner holds %d jobs, want 1", len(local))
	}
	waitServe(t, tr.srv, local[0].ID)
	forget(t, tr, local[0].ID)

	wctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	done, err := f.c.Wait(wctx, j.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("forgotten canceled job never ended: %v", err)
	}
	if done.Status != client.StatusCanceled {
		t.Fatalf("forgotten canceled job ended %q", done.Status)
	}
	if got := f.coReg.Counter("fleet.orphans").Load(); got != 0 {
		t.Fatalf("canceled job orphaned %d times", got)
	}
}
