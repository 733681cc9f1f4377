// Command rcgp-serve runs the RQFP synthesis service: an HTTP/JSON API
// over a job queue, an NPN-canonical result cache, and checkpoint/resume
// of in-flight searches.
//
//	rcgp-serve -addr :8080 -cache-dir /var/lib/rcgp/cache \
//	           -checkpoint-dir /var/lib/rcgp/jobs -max-concurrent 2
//
// Submit with the client package or plain curl:
//
//	curl -s localhost:8080/synthesize -d '{"benchmark":"decoder_2_4"}'
//	curl -s localhost:8080/jobs/j000001
//
// SIGINT/SIGTERM drain gracefully: no new jobs are admitted, running
// searches wind down to their best-so-far circuits, and their checkpoints
// stay on disk so the next process resumes them.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on the -debug-addr mux
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/reversible-eda/rcgp"
	"github.com/reversible-eda/rcgp/client"
	"github.com/reversible-eda/rcgp/internal/buildinfo"
	"github.com/reversible-eda/rcgp/internal/fleet"
	"github.com/reversible-eda/rcgp/internal/obs"
	"github.com/reversible-eda/rcgp/internal/serve"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:8080", "listen address")
		cacheDir      = flag.String("cache-dir", "", "result cache directory (empty: in-memory only)")
		cacheEntries  = flag.Int("cache-entries", 0, "in-memory cache capacity (0: default)")
		checkpointDir = flag.String("checkpoint-dir", "", "job checkpoint directory (empty: no crash recovery)")
		checkpointGen = flag.Int("checkpoint-every", 1000, "checkpoint cadence in generations")
		maxConcurrent = flag.Int("max-concurrent", 2, "concurrent synthesis jobs")
		totalWorkers  = flag.Int("workers", 0, "evaluation worker budget shared by all jobs (0: GOMAXPROCS)")
		queueLimit    = flag.Int("queue-limit", 256, "maximum queued jobs")
		generations   = flag.Int("generations", 20000, "default generations per job")
		jobTimeout    = flag.Duration("job-timeout", 0, "default per-job wall-clock bound (0: none)")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound")
		flightEvery   = flag.Int("flight-every", 500, "default flight-recorder cadence in generations (negative: off unless a request asks)")
		templates     = flag.String("templates", "starter", "template library: 'starter' (shipped), a JSONL path, or 'off'")
		templatesOut  = flag.String("templates-out", "", "persist the (possibly grown) template library here on shutdown")
		flightCap     = flag.Int("flight-cap", 2048, "flight samples retained per job for /jobs/{id}/progress")
		debugAddr     = flag.String("debug-addr", "", "serve pprof on this extra address (e.g. localhost:6060); keep it private")
		join          = flag.String("join", "", "fleet coordinator URL to register with (runner mode)")
		advertise     = flag.String("advertise", "", "URL the coordinator reaches this runner at (default: http://<listen addr>)")
		runnerID      = flag.String("runner-id", "", "stable fleet runner identity (default: derived from the advertise URL)")
		version       = flag.Bool("version", false, "print the build identity and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("rcgp-serve"))
		return
	}

	var cache *rcgp.Cache
	var err error
	if *cacheDir != "" {
		cache, err = rcgp.OpenCache(*cacheDir, *cacheEntries)
		if err != nil {
			log.Fatalf("rcgp-serve: opening cache: %v", err)
		}
	} else {
		cache = rcgp.NewMemoryCache(*cacheEntries)
	}
	defer cache.Close()

	lib, err := openTemplates(*templates)
	if err != nil {
		log.Fatalf("rcgp-serve: opening template library: %v", err)
	}
	if lib != nil {
		log.Printf("rcgp-serve: template library loaded (%d classes)", lib.Len())
	}

	reg := obs.NewRegistry()
	// Runner mode: the agent must exist before the server so the
	// checkpoint hook can point at it; it starts once the listener (and
	// with it the advertise URL) is known.
	var agent *fleet.Runner
	var onCheckpoint func(string, client.Request, client.Checkpoint)
	if *join != "" {
		agent = fleet.NewRunner(fleet.RunnerConfig{
			ID:          *runnerID,
			Coordinator: strings.TrimRight(*join, "/"),
			Cache:       cache,
			Templates:   lib,
			Registry:    reg,
			Logf:        log.Printf,
		})
		onCheckpoint = agent.OnCheckpoint
	}
	srv := serve.New(serve.Config{
		MaxConcurrent:      *maxConcurrent,
		TotalWorkers:       *totalWorkers,
		QueueLimit:         *queueLimit,
		DefaultGenerations: *generations,
		DefaultTimeout:     *jobTimeout,
		Cache:              cache,
		Templates:          lib,
		CheckpointDir:      *checkpointDir,
		CheckpointEvery:    *checkpointGen,
		FlightEvery:        *flightEvery,
		FlightCap:          *flightCap,
		Registry:           reg,
		Logf:               log.Printf,
		OnCheckpoint:       onCheckpoint,
	})

	// The debug listener is separate from the API address on purpose:
	// pprof exposes heap contents and must not ride on the public port.
	if *debugAddr != "" {
		dl, err := serve.Listen(*debugAddr)
		if err != nil {
			log.Fatalf("rcgp-serve: debug server: %v", err)
		}
		serve.ServeBackground(dl, nil, func(err error) {
			log.Printf("rcgp-serve: debug server: %v", err)
		})
		log.Printf("rcgp-serve: debug (pprof) on %s", dl.Addr())
	}

	// Bind before serving, so a bad -addr is a startup error, not a log
	// line racing the "listening" banner.
	l, err := serve.Listen(*addr)
	if err != nil {
		log.Fatalf("rcgp-serve: %v", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() {
		if err := hs.Serve(l); err != nil && err != http.ErrServerClosed {
			log.Fatalf("rcgp-serve: %v", err)
		}
	}()
	log.Printf("rcgp-serve: listening on %s", l.Addr())

	if agent != nil {
		adv := *advertise
		if adv == "" {
			adv = "http://" + l.Addr().String()
		}
		if err := agent.Start(srv, adv); err != nil {
			log.Fatalf("rcgp-serve: joining fleet at %s: %v", *join, err)
		}
		log.Printf("rcgp-serve: joined fleet %s as %s", *join, adv)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	log.Printf("rcgp-serve: %s: draining", got)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if agent != nil {
		agent.Close()
	}
	if err := srv.Close(ctx); err != nil {
		log.Printf("rcgp-serve: %v", err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("rcgp-serve: http shutdown: %v", err)
	}
	if lib != nil && *templatesOut != "" {
		if err := lib.SaveFile(*templatesOut); err != nil {
			log.Printf("rcgp-serve: saving template library: %v", err)
		} else {
			log.Printf("rcgp-serve: template library saved to %s (%d classes)", *templatesOut, lib.Len())
		}
	}
	h := srv.Health()
	fmt.Printf("rcgp-serve: drained (finished=%d)\n", h.Finished)
}

// openTemplates resolves the -templates flag: the shipped starter library,
// a JSONL file (every entry re-verified on load), or nothing.
func openTemplates(spec string) (*rcgp.TemplateLibrary, error) {
	switch spec {
	case "off", "":
		return nil, nil
	case "starter":
		return rcgp.StarterTemplates()
	default:
		lib, rejected, err := rcgp.OpenTemplateLibrary(spec)
		if err != nil {
			return nil, err
		}
		if rejected > 0 {
			log.Printf("rcgp-serve: template library %s: %d entries rejected by re-verification", spec, rejected)
		}
		return lib, nil
	}
}
