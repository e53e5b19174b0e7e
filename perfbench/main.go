// Command perfbench is the repository's benchmark: it runs one of three
// golden-checked workloads (eval-core, manycore, farm) for a fixed time,
// checks every output against the golden corpus and the model's
// invariants, and prints the end-to-end metrics — or, with -trace 1,
// the per-layer ledger — as one JSON object on the last line of
// standard output. README.md describes the workloads and metrics.
//
//	bash perfbench/run.sh --workload eval-core --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"shotgun/internal/workload"
)

// setupReps is how many times a run performs its set-up; setup_s is the
// median.
const setupReps = 3

// Result lookups per pass: 10000 HTTP polls on farm, and 100000
// in-process lookups elsewhere, where one takes a few µs and a pass
// must span many GC cycles for its percentiles to settle. Either way
// the p99 has at least 100 samples beyond it.
const (
	pollsPerPass   = 10_000
	lookupsPerPass = 100_000
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "orders scenario submission, lookups and replay inputs")
	fs.Float64Var(&o.seconds, "seconds", 30, "how long the measured passes run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced ledger instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if _, ok := workloadByName(o.workload); !ok {
		return o, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return o, errors.New("-seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return o, errors.New("-trace must be 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// pass is one measured cycle of a workload: the cold sweep, the result
// lookups, and the warm sweep.
type pass struct {
	instr  uint64    // instructions the cold sweep simulated
	coldS  float64   // cold sweep, submission to rendered tables
	warmMs float64   // warm sweep, every result already held
	polls  []float64 // result-lookup latencies, µs
}

func (p pass) minstrPerS() float64 { return float64(p.instr) / p.coldS / 1e6 }

// bench is one workload.
type bench interface {
	// setup performs the workload's set-up once and returns its time;
	// rep 0 also fills the process-wide program cache the passes use.
	setup(rep int) (time.Duration, error)
	// pass runs one measured cycle, recording spans into tr when it is
	// non-nil.
	pass(it int, tr *tracer) (pass, error)
	// layers adds the workload's per-layer metrics from a traced run.
	layers(m metrics, spans []span, tracedPasses int)
	// profiles lists the workload profiles the workload simulates.
	profiles() []workload.Profile
	close()
}

func main() {
	o, err := parseOptions(os.Args[1:], os.Stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		os.Exit(2)
	}
	res, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run. Untraced runs measure passes for the
// given time and report the end-to-end metrics. Traced runs alternate
// untraced and traced passes over the same time, report the per-layer
// ledger with the tracing overhead (traced minus untraced), run the
// layer replays, and write the spans under .bench_build/traces.
func run(o options, log io.Writer) (result, error) {
	g := &gate{}
	mk, _ := workloadByName(o.workload)
	b, err := mk(o.seed, g)
	if err != nil {
		return result{}, err
	}
	defer b.close()

	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		d, err := b.setup(rep)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var plain, traced []pass
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for it := 0; ; it++ {
		var ptr *tracer
		if o.trace && it%2 == 1 {
			ptr = tr
		}
		t := time.Now()
		p, err := b.pass(it, ptr)
		if err != nil {
			return result{}, fmt.Errorf("pass %d: %w", it, err)
		}
		if ptr != nil {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
		fmt.Fprintf(log, "pass %d (traced %v): %.3f Minstr/s, cold %.4f s, warm %.4f ms, lookup p50 %.2f us p99 %.2f us\n",
			it, ptr != nil, p.minstrPerS(), p.coldS, p.warmMs, percentile(p.polls, 0.5), percentile(p.polls, 0.99))
		minPasses := 1
		if o.trace {
			minPasses = 2
		}
		// Stop before a pass that would overrun the budget.
		if it+1 >= minPasses && time.Since(start)+time.Since(t) > budget {
			break
		}
	}

	m := metrics{}
	e2e := endToEnd(plain)
	if !o.trace {
		m = e2e
		m.set("setup_s", median(setups), "s")
		m.set("peak_rss_mb", peakRSSMB(), "MB")
	} else {
		tm := endToEnd(traced)
		m.set("trace.overhead.sim_minstr_per_s", tm["sim_minstr_per_s"].Value-e2e["sim_minstr_per_s"].Value, "Minstr/s")
		m.set("trace.overhead.sweep_cold_s", tm["sweep_cold_s"].Value-e2e["sweep_cold_s"].Value, "s")
		m.set("trace.overhead.sweep_warm_ms", tm["sweep_warm_ms"].Value-e2e["sweep_warm_ms"].Value, "ms")
		m.set("trace.spans", float64(len(tr.spans)), "count")
		b.layers(m, tr.spans, len(traced))
		for _, l := range selfLayers {
			m.set("self_ms."+l, 0, "ms")
		}
		for name, ns := range selfTimes(tr.spans) {
			if v, ok := m["self_ms."+layerOf(name)]; ok {
				m.set("self_ms."+layerOf(name), v.Value+float64(ns)/1e6/float64(len(traced)), "ms")
			}
		}
		runReplays(b.profiles(), o.seed, m)
		path, err := tr.write(".bench_build/traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(log, "spans written to %s\n", path)
	}
	// The p99 of the untraced passes is a ledger entry, not an
	// end-to-end metric: it sits where GC-delayed lookups begin, so it
	// moves with the host's speed more than any bound allows.
	polls := allPolls(plain)
	samples := len(polls)
	if o.trace {
		m.set("poll_p99_us", percentile(polls, 0.99), "us")
		m.set("poll.samples", float64(samples), "count")
		m.set("fail_frac", ratio(float64(g.failed), float64(g.attempted)), "ratio")
	}

	for _, v := range g.first {
		fmt.Fprintln(log, "FAIL:", v)
	}
	fmt.Fprintf(log, "%s seed %d: %d untraced + %d traced passes, %d lookups, %d/%d checks failed (fail_frac %.4g)\n",
		o.workload, o.seed, len(plain), len(traced), samples, g.failed, g.attempted, ratio(float64(g.failed), float64(g.attempted)))
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "  %-40s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
	return result{Correct: g.failed == 0, Attempted: g.attempted, Failed: g.failed, Metrics: m}, nil
}

// selfLayers are the span layers whose self time the ledger reports.
var selfLayers = []string{"bench", "harness.render", "sim", "server.sweep", "server.poll",
	"store.get", "store.put", "dispatch.queue", "dispatch.busy"}

// layerOf maps a span name to its ledger layer: every simulation path
// is one layer, and every benchmark-side root is another.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "sim."):
		return "sim"
	case strings.HasPrefix(name, "bench."):
		return "bench"
	}
	return name
}

// endToEnd reduces passes to the end-to-end metrics: the median over
// passes of each pass's value, and the median latency over every lookup
// of every pass.
func endToEnd(ps []pass) metrics {
	var rate, cold, warm []float64
	for _, p := range ps {
		rate = append(rate, p.minstrPerS())
		cold = append(cold, p.coldS)
		warm = append(warm, p.warmMs)
	}
	m := metrics{}
	m.set("sim_minstr_per_s", median(rate), "Minstr/s")
	m.set("sweep_cold_s", median(cold), "s")
	m.set("sweep_warm_ms", median(warm), "ms")
	m.set("poll_p50_us", percentile(allPolls(ps), 0.50), "us")
	return m
}

func allPolls(ps []pass) []float64 {
	var polls []float64
	for _, p := range ps {
		polls = append(polls, p.polls...)
	}
	return polls
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile is the nearest-rank percentile (the median of an even
// count averages the middle pair).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			fmt.Sscan(f[1], &kb)
			return kb / 1024
		}
	}
	return 0
}
