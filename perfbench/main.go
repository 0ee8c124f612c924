// Command perfbench is the repository's benchmark: it runs one named
// workload of consensus scenarios through protocol.Run in a closed loop,
// checks every Outcome, and prints its figures as JSON. See README.md.
//
//	perfbench --workload dense-hybrid --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	_ "allforone/internal/protocols"
)

// outDir holds the span files and host records, relative to the checkout
// root the benchmark runs from.
const outDir = ".bench_build/perfbench"

func main() {
	name := flag.String("workload", "", "workload to run: dense-hybrid, allconcur-crash or paper-small")
	seed := flag.Int64("seed", 1, "seed the workload's scenarios are generated from")
	seconds := flag.Float64("seconds", 20, "minimum length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer figures")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	res, rep, err := runBench(config{w: w, seed: seed, seconds: seconds, trace: trace == 1, outDir: outDir})
	if err != nil {
		return err
	}
	if len(rep.HostMismatch) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: host differs from the previous %s result in %v; compare these figures with care\n", name, rep.HostMismatch)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]*report{"report": rep}); err != nil {
		return err
	}
	return enc.Encode(res)
}
