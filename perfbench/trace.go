package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one
// benchmark request (a cold pass, a poll phase, a warm pass) share a
// trace id; Parent is the span that caused this one (0 for a root).
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Instr and CoreCycles size a simulation span: instructions
	// traversed and measured core-cycles.
	Instr      uint64 `json:"instr,omitempty"`
	CoreCycles uint64 `json:"core_cycles,omitempty"`
	Cores      int    `json:"cores,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// open is a started span; finish records it.
type open struct {
	name          string
	trace, id, pa uint64
	start         int64
}

// tracer keeps spans in memory; they are written out once, when the
// run ends. A nil *tracer records nothing, so untraced passes call the
// same code.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span

	// phase is the benchmark-side root in progress (the cold sweep, the
	// polls, the warm sweep); server spans take it as their parent.
	phase atomic.Pointer[open]
	// request is the server-side span whose work is in flight: the
	// sweep handler's span while a sweep runs. Spans the executor and
	// the store open on other goroutines take it as their parent.
	request atomic.Pointer[open]
}

// setPhase marks o as the benchmark-side root in progress.
func (t *tracer) setPhase(o *open) {
	if t != nil {
		t.phase.Store(o)
	}
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// root starts a span that begins a new trace.
func (t *tracer) root(name string) *open {
	if t == nil {
		return nil
	}
	id := t.nextID.Add(1)
	return &open{name: name, trace: id, id: id, start: t.now()}
}

// child starts a span caused by parent (a root when parent is nil).
func (t *tracer) child(parent *open, name string) *open {
	if t == nil {
		return nil
	}
	if parent == nil {
		return t.root(name)
	}
	return &open{name: name, trace: parent.trace, id: t.nextID.Add(1), pa: parent.id, start: t.now()}
}

// finish records a started span, with the simulation sizes for sim
// spans.
func (t *tracer) finish(o *open, sized ...span) {
	if t == nil || o == nil {
		return
	}
	s := span{Name: o.name, Trace: o.trace, ID: o.id, Parent: o.pa, Start: o.start, End: t.now()}
	if len(sized) > 0 {
		s.Instr, s.CoreCycles, s.Cores = sized[0].Instr, sized[0].CoreCycles, sized[0].Cores
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover (children may overlap one
// another when they ran on several workers).
func selfTimes(spans []span) map[string]int64 {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return path, nil
}
