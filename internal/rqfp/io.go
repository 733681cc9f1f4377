package rqfp

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteText serializes the netlist in a simple line-oriented format:
//
//	.rqfp
//	.pi <numPI>
//	.gate <in0> <in1> <in2> <g1-g2-g3>
//	...
//	.po <sig> <sig> ...
//	.end
func (n *Netlist) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, ".rqfp")
	fmt.Fprintf(bw, ".pi %d\n", n.NumPI)
	for _, g := range n.Gates {
		fmt.Fprintf(bw, ".gate %d %d %d %s\n", g.In[0], g.In[1], g.In[2], g.Cfg)
	}
	fmt.Fprint(bw, ".po")
	for _, po := range n.POs {
		fmt.Fprintf(bw, " %d", po)
	}
	fmt.Fprintln(bw)
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// ReadText parses the format produced by WriteText and validates the
// resulting netlist.
func ReadText(r io.Reader) (*Netlist, error) {
	sc := bufio.NewScanner(r)
	// Start small and grow on demand: the template library parses a tiny
	// netlist on every match, so a large initial buffer dominates its
	// allocation.
	sc.Buffer(nil, 1<<24)
	var n *Netlist
	sawHeader := false
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case ".rqfp":
			sawHeader = true
		case ".pi":
			if len(fields) != 2 {
				return nil, fmt.Errorf("rqfp: line %d: .pi wants one argument", line)
			}
			k, err := strconv.Atoi(fields[1])
			if err != nil || k < 0 || k > 1<<24 {
				return nil, fmt.Errorf("rqfp: line %d: bad PI count %q", line, fields[1])
			}
			n = NewNetlist(k)
		case ".gate":
			if n == nil {
				return nil, fmt.Errorf("rqfp: line %d: .gate before .pi", line)
			}
			if len(fields) != 5 {
				return nil, fmt.Errorf("rqfp: line %d: .gate wants 4 arguments", line)
			}
			var g Gate
			for j := 0; j < 3; j++ {
				v, err := strconv.Atoi(fields[1+j])
				if err != nil {
					return nil, fmt.Errorf("rqfp: line %d: bad input %q", line, fields[1+j])
				}
				g.In[j] = Signal(v)
			}
			cfg, err := ParseConfig(fields[4])
			if err != nil {
				return nil, fmt.Errorf("rqfp: line %d: %v", line, err)
			}
			g.Cfg = cfg
			n.AddGate(g)
		case ".po":
			if n == nil {
				return nil, fmt.Errorf("rqfp: line %d: .po before .pi", line)
			}
			for _, f := range fields[1:] {
				v, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("rqfp: line %d: bad PO %q", line, f)
				}
				n.POs = append(n.POs, Signal(v))
			}
		case ".end":
		default:
			return nil, fmt.Errorf("rqfp: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawHeader || n == nil {
		return nil, fmt.Errorf("rqfp: missing .rqfp/.pi header")
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}
