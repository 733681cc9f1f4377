package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"github.com/reversible-eda/rcgp"
	"github.com/reversible-eda/rcgp/client"
	"github.com/reversible-eda/rcgp/internal/serve"
)

const (
	serveClients  = 2
	serveInputs   = 5
	serveColdEach = 4 // requests per cycle: one cold, the rest cache hits
)

// serveEnv is an in-process rcgp-serve (only Cache and Templates set, the
// rest at its defaults) behind a loopback listener, driven over HTTP by
// closed-loop clients.
type serveEnv struct {
	seed   int64
	gens   int
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	hc     *http.Client
	c      *client.Client
}

func setupServe(s *setupCtx) (env, error) {
	e := &serveEnv{seed: s.seed, gens: 2000}
	if s.toy {
		e.gens = 50
	}
	lib, err := s.starterTemplates()
	if err != nil {
		return nil, err
	}
	err = s.span("serve.start", func() error {
		l, err := serve.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		e.srv = serve.New(serve.Config{Cache: rcgp.NewMemoryCache(0), Templates: lib})
		e.hs = &http.Server{Handler: e.srv.Handler()}
		e.served = make(chan struct{})
		go func() {
			defer close(e.served)
			e.hs.Serve(l) // returns http.ErrServerClosed after Shutdown
		}()
		e.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
		e.c = &client.Client{BaseURL: "http://" + l.Addr().String(), HTTPClient: e.hc}
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = s.span("warmup", func() error {
		rng := rand.New(rand.NewSource(warmUpSeed))
		return e.request(nil, "warmup", randomTables(rng), min(e.gens, warmUpGenerations), warmUpSeed).err
	})
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *serveEnv) close() {
	if e.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e.srv.Close(ctx)
	e.hs.Shutdown(ctx)
	<-e.served
	e.hc.CloseIdleConnections()
	e.srv = nil
}

// run leaves cal alone: the clients never pause, so the phase is
// calibrated only before and after it.
func (e *serveEnv) run(lim limit, tr *tracer, _ *calibrator) (*phase, error) {
	ctx := context.Background()
	before, err := e.c.Health(ctx)
	if err != nil {
		return nil, err
	}
	p := &phase{counts: make([]int, serveClients)}
	perClient := make([][]*job, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < serveClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			perClient[ci], p.counts[ci] = e.client(ci, lim, tr)
		}(ci)
	}
	wg.Wait()
	p.wall = time.Since(start)
	after, err := e.c.Health(ctx)
	if err != nil {
		return nil, err
	}
	for _, js := range perClient {
		for _, j := range js {
			j.seq = len(p.jobs)
			p.jobs = append(p.jobs, j)
			var apiErr *client.APIError
			if errors.As(j.err, &apiErr) && apiErr.StatusCode == http.StatusTooManyRequests {
				p.rejected++
			}
		}
	}
	if before.Cache != nil && after.Cache != nil {
		p.cacheHits = after.Cache.Hits - before.Cache.Hits
		p.cacheMiss = after.Cache.Misses - before.Cache.Misses
		p.cacheStore = after.Cache.Stores - before.Cache.Stores
	}
	if after.Templates != nil {
		p.libEntries = after.Templates.Entries
	}
	return p, nil
}

// client runs one closed-loop client in cycles of serveColdEach requests.
// Its request sequence depends only on the seed and the client index: each
// cycle opens with a fresh random function, and the rest are NPN variants
// (input permutation and negation, output complement) of functions this
// client completed earlier, so each of them is a cache hit.
func (e *serveEnv) client(ci int, lim limit, tr *tracer) ([]*job, int) {
	rng := rand.New(rand.NewSource(mix(e.seed, int64(ci))))
	var done [][]uint32
	var jobs []*job
	cycle := 0
	for ; !lim.reached(ci, cycle); cycle++ {
		rt := tr
		if !tracedUnit(cycle) {
			rt = nil
		}
		for i := 0; i < serveColdEach; i++ {
			k := cycle*serveColdEach + i
			var tables []uint32
			if i == 0 || len(done) == 0 {
				tables = randomTables(rng)
			} else {
				tables = npnVariant(done[rng.Intn(len(done))], rng)
			}
			j := e.request(rt, fmt.Sprintf("c%d/q%04d", ci, k), tables, e.gens, mix(e.seed, int64(ci), int64(k)))
			j.unit = cycle
			if j.err == nil && !j.fromCache {
				done = append(done, tables)
			}
			jobs = append(jobs, j)
		}
	}
	return jobs, cycle
}

// request submits one function and follows it to its terminal state.
func (e *serveEnv) request(tr *tracer, trace string, tables []uint32, gens int, seed int64) *job {
	req := client.Request{NumInputs: serveInputs, Generations: gens, Seed: seed}
	for _, t := range tables {
		req.TruthTables = append(req.TruthTables, fmt.Sprintf("%08x", t))
	}
	j := &job{trace: trace, label: "random 5-input function", ref: tablesReference(tables), traced: tr != nil}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	root := tr.begin(trace, 0, "request")
	t0 := time.Now()
	sp := tr.begin(trace, root, "client.Submit")
	st, err := e.c.Submit(ctx, req)
	tr.end(sp, nil)
	submit := time.Since(t0)
	if err == nil && !st.Status.Terminal() {
		sp = tr.begin(trace, root, "client.Watch")
		st, err = e.c.Watch(ctx, st.ID, nil)
		tr.end(sp, nil)
	}
	t1 := time.Now()
	j.latency = t1.Sub(t0)
	switch {
	case err != nil:
		j.err = err
	case st.Status != client.StatusDone || st.Result == nil || !st.Result.Verified:
		j.err = fmt.Errorf("job %s ended %s (%s)", st.ID, st.Status, st.Error)
	default:
		j.netlist = st.Result.Netlist
		j.jjs = st.Result.Stats.JJs
		j.fromCache = st.Result.FromCache
		if st.StartedAt != nil && st.FinishedAt != nil {
			j.serve = &serveTimes{
				submit: submit,
				queue:  st.StartedAt.Sub(st.SubmittedAt),
				run:    st.FinishedAt.Sub(*st.StartedAt),
				notify: t1.Sub(*st.FinishedAt),
			}
			if !j.fromCache {
				j.flow = flowFromJob(st, j.serve.run)
			}
		}
	}
	if tr != nil {
		tr.end(root, j.counters())
	}
	return j
}

// randomTables draws a fresh 5-input, 2-output function.
func randomTables(rng *rand.Rand) []uint32 {
	return []uint32{rng.Uint32(), rng.Uint32()}
}

// npnVariant applies a random input permutation and negation, shared by
// both outputs, and a random complement of each output: a member of the
// same multi-output NPN class.
func npnVariant(tables []uint32, rng *rand.Rand) []uint32 {
	perm := rng.Perm(serveInputs)
	neg := uint(rng.Intn(1 << serveInputs))
	out := make([]uint32, len(tables))
	for o, t := range tables {
		for x := uint(0); x < 1<<serveInputs; x++ {
			var y uint
			for i := 0; i < serveInputs; i++ {
				y |= (x>>uint(i)&1 ^ neg>>uint(i)&1) << uint(perm[i])
			}
			out[o] |= (t >> y & 1) << x
		}
		if rng.Intn(2) == 1 {
			out[o] = ^out[o]
		}
	}
	return out
}

func tablesReference(tables []uint32) reference {
	return reference{inputs: serveInputs, outputs: len(tables), eval: func(x uint64) uint64 {
		var y uint64
		for o, t := range tables {
			y |= uint64(t>>x&1) << uint(o)
		}
		return y
	}}
}
