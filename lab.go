package etap

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"etap/internal/campaign"
	obstrace "etap/internal/obs/trace"
)

// Lab is a session cache for compiled systems: it memoizes Build and
// Harden results per (source, policy, harden-options) key so concurrent
// callers — a characterization service, a sweep over many inputs, a test
// harness — never recompile or re-analyze the same program twice.
// Systems and HardenedSystems are immutable after construction and safe
// to share. The characterization service also keeps its campaign
// engines here, one per (system, input, mode, score) key, so a repeated
// job skips the golden pass; campaigns built through the public API
// stay with their caller.
//
// A Lab is safe for concurrent use. Concurrent requests for the same key
// block on one build; requests for different keys build in parallel.
//
// The cache is bounded: once it holds Capacity distinct keys, systems
// and engines alike, inserting a new one evicts the least-recently-used
// entry (failed builds are cached and evicted the same way). Eviction
// never breaks callers already waiting on an entry — they keep their
// result; the key is simply rebuilt on its next miss.
type Lab struct {
	mu       sync.Mutex
	entries  map[labKey]*labEntry
	order    *list.List // front = most recently used; values are labKey
	capacity int
	systems  labCounts // Build and Harden entries
	engines  labCounts // campaign-engine entries
}

// labCounts is one entry kind's cache accounting.
type labCounts struct {
	builds, hits, evictions int64
}

// DefaultLabCapacity is the entry bound NewLab applies.
const DefaultLabCapacity = 128

type labKey struct {
	source   string
	policy   Policy
	hardened bool
	harden   HardenOptions
	// engine marks a campaign-engine entry, the only kind with the fields
	// below: its Mode, input, and the benchmark whose fidelity measure
	// grades its trials ("" for bit-exact grading).
	engine bool
	mode   campaign.Mode
	input  string
	score  string
}

type labEntry struct {
	once sync.Once
	sys  *System
	hard *HardenedSystem
	eng  *campaign.Engine
	err  error
	elem *list.Element
}

// NewLab creates an empty session cache bounded at DefaultLabCapacity
// entries.
func NewLab() *Lab { return NewLabCapacity(DefaultLabCapacity) }

// NewLabCapacity creates an empty session cache holding at most capacity
// entries — compiled systems and campaign engines together, each
// (source, policy, harden) system and each (system, input, mode, score)
// engine one entry — evicting least-recently-used entries beyond that. A
// capacity of zero or less means unbounded — the pre-LRU behaviour,
// appropriate only when the key population is known and finite.
func NewLabCapacity(capacity int) *Lab {
	return &Lab{
		entries:  make(map[labKey]*labEntry),
		order:    list.New(),
		capacity: capacity,
	}
}

// counts is the accounting of key's entry kind. Callers hold l.mu.
func (l *Lab) counts(key labKey) *labCounts {
	if key.engine {
		return &l.engines
	}
	return &l.systems
}

func (l *Lab) entry(key labKey) *labEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e, ok := l.entries[key]; ok {
		l.counts(key).hits++
		l.order.MoveToFront(e.elem)
		return e
	}
	e := &labEntry{}
	e.elem = l.order.PushFront(key)
	l.entries[key] = e
	if l.capacity > 0 {
		for len(l.entries) > l.capacity {
			back := l.order.Back()
			evict := back.Value.(labKey)
			l.order.Remove(back)
			delete(l.entries, evict)
			l.counts(evict).evictions++
		}
	}
	return e
}

// countBuild records one paid miss of key's entry kind.
func (l *Lab) countBuild(key labKey) {
	l.mu.Lock()
	l.counts(key).builds++
	l.mu.Unlock()
}

// Build compiles and analyzes source under policy, or returns the cached
// System from an earlier call with the same key.
func (l *Lab) Build(source string, policy Policy) (*System, error) {
	key := labKey{source: source, policy: policy}
	e := l.entry(key)
	e.once.Do(func() {
		l.countBuild(key)
		e.sys, e.err = Build(source, policy)
	})
	return e.sys, e.err
}

// BuildBenchmark is Build over a registered benchmark's source.
func (l *Lab) BuildBenchmark(name string, policy Policy) (*System, error) {
	b, ok := BenchmarkByName(name)
	if !ok {
		return nil, fmt.Errorf("etap: unknown benchmark %q", name)
	}
	return l.Build(b.Source(), policy)
}

// Harden returns the hardened system for (source, policy, opts),
// building and caching both the base System and the hardened rewrite on
// first use. The base compile is shared with Build: hardening a source
// the Lab already built reuses the analysis instead of recompiling.
func (l *Lab) Harden(source string, policy Policy, opts HardenOptions) (*HardenedSystem, error) {
	key := labKey{source: source, policy: policy, hardened: true, harden: opts}
	e := l.entry(key)
	e.once.Do(func() {
		sys, err := l.Build(source, policy)
		if err != nil {
			e.err = err
			return
		}
		l.countBuild(key)
		e.hard, e.err = sys.Harden(opts)
	})
	return e.hard, e.err
}

// engine returns the campaign engine an engine key names, building it
// from the key alone, Score and DetectClass included, on the first
// request; every later caller shares it unchanged. The key's system
// comes from the Lab first (a lab.build span), then the engine (a
// campaign.new span, whose reused attribute says if it was cached).
func (l *Lab) engine(ctx context.Context, key labKey) (*campaign.Engine, error) {
	_, labSpan := obstrace.Start(ctx, "lab.build")
	var sys *System
	var err error
	if key.hardened {
		var h *HardenedSystem
		if h, err = l.Harden(key.source, key.policy, key.harden); h != nil {
			sys = h.System
		}
	} else {
		sys, err = l.Build(key.source, key.policy)
	}
	labSpan.End()
	if err != nil {
		return nil, err
	}
	_, span := obstrace.Start(ctx, "campaign.new")
	e := l.entry(key)
	reused := true
	e.once.Do(func() {
		reused = false
		l.countBuild(key)
		var score campaign.ScoreFunc
		if b, ok := BenchmarkByName(key.score); ok {
			score = b.Score
		}
		e.eng, e.err = sys.sub.Engine(key.mode, []byte(key.input), score, campaign.Config{})
	})
	span.SetAttr(obstrace.Bool("reused", reused))
	span.End()
	return e.eng, e.err
}

// Len reports how many distinct keys the Lab has cached — systems and
// campaign engines — counting entries that failed to build.
func (l *Lab) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Builds reports how many cache misses the Lab has actually paid for —
// compiles plus harden rewrites performed, not served from cache. In a
// service sharing one Lab, N concurrent submissions of one key raise it
// by exactly one.
func (l *Lab) Builds() int64 { return l.read(&l.systems.builds) }

// Hits reports how many entry lookups were served from cache (the
// complement of Builds over the Lab's lifetime). A Harden call that
// reuses an already-built base System counts one hit for the base key.
func (l *Lab) Hits() int64 { return l.read(&l.systems.hits) }

// Evictions reports how many system entries the LRU bound has
// discarded.
func (l *Lab) Evictions() int64 { return l.read(&l.systems.evictions) }

// EngineBuilds reports how many campaign engines the Lab has built —
// golden passes paid for, not served from cache.
func (l *Lab) EngineBuilds() int64 { return l.read(&l.engines.builds) }

// EngineHits reports how many campaign-engine lookups found their
// engine cached (or being built by another caller).
func (l *Lab) EngineHits() int64 { return l.read(&l.engines.hits) }

// EngineEvictions reports how many campaign engines the LRU bound has
// discarded.
func (l *Lab) EngineEvictions() int64 { return l.read(&l.engines.evictions) }

// read returns one of the Lab's counters.
func (l *Lab) read(n *int64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return *n
}
