package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shotgun/internal/client"
	"shotgun/internal/dispatch"
	"shotgun/internal/harness"
	"shotgun/internal/server"
	"shotgun/internal/sim"
	"shotgun/internal/spec"
	"shotgun/internal/store"
	"shotgun/internal/workload"
)

// farmWorkers is the server's simulation pool size.
const farmWorkers = 2

// farmBench serves a spec sweep from an in-process server on a loopback
// listener with a local store in a fresh directory per pass: a cold
// sweep that fills the store, closed-loop polls of the job table, then a
// restart on the same store and the same sweep again, served from the
// store alone.
type farmBench struct {
	seed  uint64
	g     *gate
	id    string
	body  []byte
	gold  goldens
	exps  []harness.Experiment
	keys  []string
	scs   map[string]sim.Scenario // normalized, by content key
	profs []workload.Profile
	tmp   string

	counts firstCounts

	// Traced passes only.
	compileUs  []float64
	gets, hits atomic.Uint64
}

func newFarmBench(id string, seed uint64, g *gate) (*farmBench, error) {
	b := &farmBench{seed: seed, g: g, id: id, scs: make(map[string]sim.Scenario)}
	var err error
	if b.body, err = os.ReadFile(filepath.Join("specs", id+".json")); err != nil {
		return nil, err
	}
	if b.gold, err = loadGoldens([]string{id}); err != nil {
		return nil, err
	}
	c, err := spec.Compile(b.body)
	if err != nil {
		return nil, fmt.Errorf("spec %s: %w", id, err)
	}
	b.exps = c.Experiments()
	scs := distinct(harness.AllScenarios(b.exps))
	for _, sc := range scs {
		k := store.ScenarioKey(sc)
		b.keys = append(b.keys, k)
		b.scs[k] = sc
	}
	b.profs = profilesOf(scs)
	if b.tmp, err = os.MkdirTemp("", "perfbench-farm-"); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *farmBench) profiles() []workload.Profile { return b.profs }

func (b *farmBench) close() { os.RemoveAll(b.tmp) }

// farm is one running server with its store and client.
type farm struct {
	st     *store.Store
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

// start opens the store in dir and serves it on a loopback listener.
// With a tracer, the store, the executor and the handler are wrapped to
// record spans.
func (b *farmBench) start(dir string, tr *tracer) (*farm, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	cfg := server.Config{Scale: harness.QuickScale(), ScaleName: "quick", Workers: farmWorkers, Store: st}
	var ft *farmTrace
	if tr != nil {
		ft = &farmTrace{tr: tr, b: b, queue: map[string]*open{}, busy: map[string]*open{}, sims: map[string]*open{}}
		cfg.Store = &tracedStore{Store: st, ft: ft}
		cfg.NewExecutor = func(r *harness.Runner, sink dispatch.Sink) dispatch.Executor {
			ts := &tracedSink{Sink: sink, ft: ft}
			return &tracedExec{Executor: dispatch.NewLocalPool(r, ts, 0), ft: ft}
		}
	}
	srv := server.New(cfg)
	handler := srv.Handler()
	if ft != nil {
		handler = ft.middleware(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	f := &farm{
		st: st, srv: srv,
		hs:     &http.Server{Handler: handler},
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
		served: make(chan error, 1),
	}
	go func() { f.served <- f.hs.Serve(ln) }()
	return f, nil
}

// stop closes the listener and connections, waits for the serve loop,
// then drains the executor.
func (f *farm) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := f.hs.Shutdown(ctx)
	if serr := <-f.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	f.client.CloseIdleConnections()
	f.srv.Close()
	return err
}

func (b *farmBench) setup(rep int) (time.Duration, error) {
	dir, err := os.MkdirTemp(b.tmp, "setup-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	t := time.Now()
	generate(b.profs, rep)
	f, err := b.start(dir, nil)
	if err != nil {
		return 0, err
	}
	d := time.Since(t)
	return d, f.stop()
}

// sweep posts the spec and checks the text response against the golden
// table (the handler ends each table with a newline).
func (b *farmBench) sweep(f *farm) error {
	resp, err := f.client.Post(f.url+"/v1/sweeps?format=text", "application/json", bytes.NewReader(b.body))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if b.g.check(resp.StatusCode == http.StatusOK, "POST /v1/sweeps answered %d: %s", resp.StatusCode, raw) {
		b.gold.compare(b.g, b.id, strings.TrimSuffix(string(raw), "\n"))
	}
	return nil
}

// poll fetches one scenario's status; the caller times it.
func (b *farmBench) poll(f *farm, key string) (client.ScenarioStatus, int, error) {
	var st client.ScenarioStatus
	resp, err := f.client.Get(f.url + "/v1/scenarios/" + key)
	if err != nil {
		return st, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return st, resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(raw, &st)
	}
	return st, resp.StatusCode, err
}

func (b *farmBench) pass(it int, tr *tracer) (p pass, err error) {
	rng := rand.New(rand.NewPCG(b.seed, uint64(it)))
	dir, err := os.MkdirTemp(b.tmp, "store-")
	if err != nil {
		return p, err
	}
	defer os.RemoveAll(dir)

	f, err := b.start(dir, tr)
	if err != nil {
		return p, err
	}
	root := tr.root("bench.cold")
	tr.setPhase(root)
	runtime.GC()
	t := time.Now()
	if err := b.sweep(f); err != nil {
		f.stop()
		return p, err
	}
	p.coldS = time.Since(t).Seconds()
	tr.finish(root)

	// Closed-loop polls of the job table; each response is checked
	// after its latency is taken.
	root = tr.root("bench.polls")
	tr.setPhase(root)
	var mu sync.Mutex
	results := make(map[string]sim.ScenarioResult)
	var pollErr atomic.Pointer[error]
	runtime.GC()
	p.polls = lookups(b.keys, pollsPerPass, rng, func(key string) {
		st, code, err := b.poll(f, key)
		if err != nil {
			pollErr.CompareAndSwap(nil, &err)
			return
		}
		ok := b.g.check(code == http.StatusOK && st.Key == key && st.Status == server.StatusDone && st.Result != nil,
			"GET /v1/scenarios/%s answered %d with status %q", key, code, st.Status)
		if ok {
			mu.Lock()
			results[key] = *st.Result
			mu.Unlock()
		}
	})
	tr.finish(root)
	if e := pollErr.Load(); e != nil {
		f.stop()
		return p, *e
	}

	var counts simCounts
	for _, key := range b.keys {
		res, ok := results[key]
		if !b.g.check(ok, "scenario %s was never polled successfully", key) {
			continue
		}
		checkInvariants(b.g, b.scs[key], res)
		counts.add(res)
		p.instr += instrOf(b.scs[key], res)
	}
	b.counts.check(b.g, counts)
	if err := f.stop(); err != nil {
		return p, err
	}

	// Restart on the same store: the sweep must be served from it.
	p.warmMs, err = warmSweeps(func() (time.Duration, error) {
		f, err := b.start(dir, tr)
		if err != nil {
			return 0, err
		}
		root := tr.root("bench.warm")
		tr.setPhase(root)
		t := time.Now()
		err = b.sweep(f)
		d := time.Since(t)
		tr.finish(root)
		st := f.st.Stats()
		b.g.check(st.Puts == 0 && st.Hits == uint64(len(b.keys)),
			"warm sweep did %d store puts and %d hits, want 0 puts and %d hits", st.Puts, st.Hits, len(b.keys))
		return d, errors.Join(err, f.stop())
	})
	if err == nil && tr != nil {
		b.traceOffline(tr, results)
	}
	return p, err
}

// traceOffline times, in a traced pass, the two layers the server runs
// inside the sweep handler where no wrapper reaches: compiling the spec
// and rendering its tables from held results.
func (b *farmBench) traceOffline(tr *tracer, results map[string]sim.ScenarioResult) {
	t := time.Now()
	if _, err := spec.Compile(b.body); err != nil {
		b.g.check(false, "spec %s: %v", b.id, err)
	}
	b.compileUs = append(b.compileUs, float64(time.Since(t))/1e3)

	r := harness.NewRunnerWorkers(harness.QuickScale(), 1)
	for key, res := range results {
		r.Seed(b.scs[key], res)
	}
	root := tr.root("bench.render")
	o := tr.child(root, "harness.render")
	var text strings.Builder
	for _, e := range b.exps {
		text.WriteString(e.Run(r))
	}
	tr.finish(o)
	tr.finish(root)
	b.gold.compare(b.g, b.id, text.String())
}

func (b *farmBench) layers(m metrics, spans []span, passes int) {
	simLayers(m, spans)
	serviceLayers(m, spans, passes, b)
	b.counts.first.metrics(m)
}

// serviceLayers reports the server, store, dispatch and spec metrics; a
// workload without a service stack (fb nil) reports them as zero.
func serviceLayers(m metrics, spans []span, passes int, fb *farmBench) {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	durs := map[string][]float64{}
	for _, s := range spans {
		name := s.Name
		if name == "server.sweep" && byID[s.Parent].Name != "bench.warm" {
			continue // server.sweep_us is the warm sweep's handler time
		}
		durs[name] = append(durs[name], float64(s.dur()))
	}
	mean := func(xs []float64) float64 {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		return ratio(sum, float64(len(xs)))
	}
	m.set("server.sweep_us", median(durs["server.sweep"])/1e3, "us")
	m.set("server.poll_us", median(durs["server.poll"])/1e3, "us")
	m.set("store.get_us", mean(durs["store.get"])/1e3, "us")
	m.set("store.put_us", mean(durs["store.put"])/1e3, "us")
	m.set("store.gets", ratio(float64(len(durs["store.get"])), float64(passes)), "count")
	m.set("store.puts", ratio(float64(len(durs["store.put"])), float64(passes)), "count")
	m.set("dispatch.queue_wait_ms", mean(durs["dispatch.queue"])/1e6, "ms")
	m.set("dispatch.busy_ms", mean(durs["dispatch.busy"])/1e6, "ms")
	hitRatio, compile := 0.0, 0.0
	if fb != nil {
		hitRatio = ratio(float64(fb.hits.Load()), float64(fb.gets.Load()))
		compile = median(fb.compileUs)
	}
	m.set("store.hit_ratio", hitRatio, "ratio")
	m.set("spec.compile_us", compile, "us")
}

// farmTrace holds the spans a traced farm opens on one goroutine and
// closes on another, keyed by scenario content key.
type farmTrace struct {
	tr *tracer
	b  *farmBench

	mu    sync.Mutex
	queue map[string]*open // Enqueue → JobRunning
	busy  map[string]*open // JobRunning → JobDone/JobFailed
	sims  map[string]*open // store miss → PutScenario
}

func (ft *farmTrace) swap(m map[string]*open, key string, o *open) *open {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	old := m[key]
	if o == nil {
		delete(m, key)
	} else {
		m[key] = o
	}
	return old
}

func (ft *farmTrace) busySpan(key string) *open {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.busy[key]
}

// middleware records one span per request: server.sweep for sweeps,
// server.poll for scenario polls. A sweep's span is the parent of the
// executor and store spans its jobs open.
func (ft *farmTrace) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := "server.other"
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/sweeps":
			name = "server.sweep"
		case strings.HasPrefix(r.URL.Path, "/v1/scenarios/"):
			name = "server.poll"
		}
		o := ft.tr.child(ft.tr.phase.Load(), name)
		if name == "server.sweep" {
			ft.tr.request.Store(o)
		}
		next.ServeHTTP(w, r)
		ft.tr.finish(o)
	})
}

// tracedExec times each job's wait between Enqueue and JobRunning.
type tracedExec struct {
	dispatch.Executor
	ft *farmTrace
}

func (e *tracedExec) Enqueue(key string, sc sim.Scenario) error {
	e.ft.swap(e.ft.queue, key, e.ft.tr.child(e.ft.tr.request.Load(), "dispatch.queue"))
	err := e.Executor.Enqueue(key, sc)
	if err != nil {
		e.ft.tr.finish(e.ft.swap(e.ft.queue, key, nil))
	}
	return err
}

// tracedSink times each job's run between JobRunning and its end.
type tracedSink struct {
	dispatch.Sink
	ft *farmTrace
}

func (s *tracedSink) JobRunning(key string) {
	s.ft.tr.finish(s.ft.swap(s.ft.queue, key, nil))
	s.ft.swap(s.ft.busy, key, s.ft.tr.child(s.ft.tr.request.Load(), "dispatch.busy"))
	s.Sink.JobRunning(key)
}

func (s *tracedSink) JobDone(key string, res sim.ScenarioResult) {
	s.ft.tr.finish(s.ft.swap(s.ft.busy, key, nil))
	s.Sink.JobDone(key, res)
}

func (s *tracedSink) JobFailed(key string, msg string) {
	s.ft.tr.finish(s.ft.swap(s.ft.busy, key, nil))
	s.Sink.JobFailed(key, msg)
}

// tracedStore times every store read and write, and brackets each
// simulation between the runner's store miss and its Put.
type tracedStore struct {
	*store.Store
	ft *farmTrace
}

func (s *tracedStore) GetScenario(sc sim.Scenario) (sim.ScenarioResult, bool) {
	key := store.ScenarioKey(sc)
	parent := s.ft.busySpan(key)
	o := s.ft.tr.child(parent, "store.get")
	res, ok := s.Store.GetScenario(sc)
	s.ft.tr.finish(o)
	s.count(ok)
	if !ok {
		s.ft.swap(s.ft.sims, key, s.ft.tr.child(parent, "sim."+simPath(sc)))
	}
	return res, ok
}

func (s *tracedStore) PutScenario(sc sim.Scenario, res sim.ScenarioResult) error {
	key := store.ScenarioKey(sc)
	s.ft.tr.finish(s.ft.swap(s.ft.sims, key, nil),
		span{Instr: instrOf(sc, res), CoreCycles: measuredCoreCycles(res), Cores: len(sc.Cores)})
	o := s.ft.tr.child(s.ft.busySpan(key), "store.put")
	err := s.Store.PutScenario(sc, res)
	s.ft.tr.finish(o)
	return err
}

func (s *tracedStore) GetKey(key string) (store.Record, bool) {
	o := s.ft.tr.child(s.ft.tr.request.Load(), "store.get")
	rec, ok := s.Store.GetKey(key)
	s.ft.tr.finish(o)
	s.count(ok)
	return rec, ok
}

func (s *tracedStore) count(hit bool) {
	s.ft.b.gets.Add(1)
	if hit {
		s.ft.b.hits.Add(1)
	}
}
