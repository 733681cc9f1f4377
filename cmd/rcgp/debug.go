package main

import (
	"fmt"
	_ "net/http/pprof"
	"os"

	"github.com/reversible-eda/rcgp/internal/serve"
)

// startDebugServer serves pprof (/debug/pprof/) on addr for the lifetime
// of the run. The listener is bound synchronously so a bad address or
// occupied port is reported immediately (a mistyped -debug-addr used to
// fail silently from the serving goroutine, after the run was already
// minutes in); the failure still does not abort the synthesis.
func startDebugServer(addr string) {
	l, err := serve.Listen(addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rcgp: debug server:", err)
		return
	}
	serve.ServeBackground(l, nil, func(err error) {
		fmt.Fprintln(os.Stderr, "rcgp: debug server:", err)
	})
}
