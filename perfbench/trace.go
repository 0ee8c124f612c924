package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// span is one timed interval of the traced run. Spans of one scenario run
// share Run (1-based; 0 = not tied to a run); Parent names the enclosing
// span.
type span struct {
	Name    string `json:"name"`
	Run     int    `json:"run"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spans records spans in memory. A nil *spans records nothing, which is
// how the timed (untraced) run uses the same code.
type spans struct {
	origin time.Time
	list   []span
}

func newSpans() *spans { return &spans{origin: time.Now()} }

// start opens a span and returns the function that closes it.
func (s *spans) start(name string, run int, parent string) func() {
	if s == nil {
		return func() {}
	}
	t0 := time.Since(s.origin).Nanoseconds()
	return func() {
		s.list = append(s.list, span{Name: name, Run: run, Parent: parent, StartNs: t0, EndNs: time.Since(s.origin).Nanoseconds()})
	}
}

// total sums the durations of the spans called name, in seconds.
func (s *spans) total(name string) float64 {
	var ns int64
	for _, sp := range s.list {
		if sp.Name == name {
			ns += sp.EndNs - sp.StartNs
		}
	}
	return float64(ns) / 1e9
}

// write stores the spans as JSON in path.
func (s *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(s.list)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// host identifies the machine a result was measured on.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// Workers is the expansion-pool width a Scenario with Workers = 0
	// resolves to (one per CPU).
	Workers int `json:"workers"`
}

func thisHost() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Workers:    runtime.NumCPU(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// hostDiff names the fields in which two hosts differ.
func hostDiff(a, b host) []string {
	var d []string
	if a.NumCPU != b.NumCPU {
		d = append(d, "nproc")
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		d = append(d, "gomaxprocs")
	}
	if a.CPUModel != b.CPUModel {
		d = append(d, "cpu_model")
	}
	if a.GoVersion != b.GoVersion {
		d = append(d, "go_version")
	}
	if a.Workers != b.Workers {
		d = append(d, "workers")
	}
	return d
}

// compareHost flags a result whose host differs from the one that wrote
// the previous result for the same workload and trace mode in dir, then
// records this result's host there. The figures are not adjusted: a
// comparison across unlike hosts is reported, never loosened.
func compareHost(dir, key string, h host) ([]string, error) {
	path := filepath.Join(dir, "host-"+key+".json")
	var diff []string
	if b, err := os.ReadFile(path); err == nil {
		var prev host
		if json.Unmarshal(b, &prev) == nil {
			diff = hostDiff(prev, h)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return diff, err
	}
	b, err := json.Marshal(h)
	if err != nil {
		return diff, err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return diff, fmt.Errorf("record host: %w", err)
	}
	return diff, nil
}
