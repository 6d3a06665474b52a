// Package verify is an explicit-state model checker for generated
// protocols — the role Murphi plays in the paper (§VI). It enumerates the
// reachable state space of N caches + directory + bounded virtual-channel
// network with a small rotating data-value domain, and checks:
//
//   - SWMR: at most one writer, and no readers alongside a writer, over
//     stable-state permissions (the paper verifies physical-time SWMR
//     "except in one well-known situation" — the single access a
//     transaction performs after its epoch logically ended; those
//     completion accesses are flagged exempt by the engine).
//   - Data-value: every readable stable copy equals the last written
//     value, every transient load hit reads the last written value, and
//     every non-exempt completed load returns it.
//   - Deadlock: no reachable state without enabled rules, and (optional)
//     no reachable state from which quiescence is unreachable — the
//     terminal-SCC formulation that also catches stuck transactions.
//
// Exploration is a level-synchronized parallel BFS: each depth level's
// frontier is expanded by a worker pool (successor generation, binary
// canonical keys, visited-set probes all run concurrently), then a
// sequential merge assigns state indices, records edges and violations,
// and builds the next frontier in the exact order the classic FIFO BFS
// would — so States, Edges, Depth, violations and witness traces are
// identical for every Parallelism setting, including 1.
//
// The visited set has two backings (Config.Fingerprint): the exact set
// keeps full canonical keys; fingerprint mode keeps only 64-bit state
// fingerprints in internal/store's open-addressing table — about a
// tenth of the memory, which is what bounds large cache counts. Verify
// results can also be memoized across runs through ResultCache, keyed
// by the canonical spec text plus generation and checker configuration
// (see docs/CACHING.md).
package verify

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"protogen/internal/depend"
	"protogen/internal/engine"
	"protogen/internal/ir"
	"protogen/internal/store"
)

// Config tunes the exploration.
type Config struct {
	Caches        int
	Capacity      int
	Values        int
	MaxStates     int  // exploration cap; Complete=false when hit
	CheckSWMR     bool // single-writer/multiple-reader over stable states
	CheckValues   bool // data-value invariant (disable for TSO-CC)
	CheckLiveness bool // quiescence reachability (needs the edge graph)
	Symmetry      bool // canonicalize cache identities (Murphi scalarset)
	MaxViolations int
	// Parallelism is the worker count for frontier expansion: 0 means
	// GOMAXPROCS, 1 runs everything inline (sequential). Results are
	// identical at every setting.
	Parallelism int
	// Fingerprint switches the visited set from full canonical keys to
	// 64-bit state fingerprints (hash compaction, as in Murphi's -b):
	// ~10x less memory per state, at a false-merge probability of about
	// n²/2⁶⁵ — negligible below tens of millions of states. States,
	// Edges, Depth and traces match exact mode whenever no fingerprint
	// collision occurs.
	Fingerprint bool
	// CollisionAudit (fingerprint mode only) retains every state's full
	// key alongside its fingerprint and reports observed false merges in
	// Result.FalseMerges. It spends the memory fingerprinting saves —
	// use it to validate fingerprint mode on a new protocol, not to run
	// at scale.
	CollisionAudit bool
	// Reduce enables partial-order reduction: states whose enabled rules
	// at one cache node are statically invisible (internal/depend) and
	// dynamically unreferenced by the rest of the system expand only that
	// node's rules. Violation and liveness verdicts match full
	// exploration; States/Edges/Depth are (deterministically) smaller.
	// Reduction silently falls back to full exploration when the
	// protocol-level analysis is unsafe (Result.ReduceUnsafe).
	Reduce bool
	// CommuteAudit (requires Reduce) re-executes sampled (ample, skipped)
	// rule pairs in both orders at every reduced state and asserts the
	// final states agree — a runtime check of the static independence
	// relation, in the spirit of CollisionAudit. Any discrepancy is a
	// hard "por-audit" violation. Audited results are never served from
	// or written to the result cache.
	CommuteAudit bool
	// Progress, when non-nil, is called after each completed BFS depth
	// level with a snapshot of the exploration. It runs on the merge
	// goroutine (never concurrently with itself) and must return
	// promptly; nil costs one pointer check per level. Progress never
	// affects results and is excluded from result-cache keys.
	Progress func(Progress)
}

// Progress is one level-boundary snapshot of a running exploration.
type Progress struct {
	States   int // states discovered so far
	Edges    int // edges recorded so far
	Depth    int // deepest level completed
	Frontier int // states awaiting expansion at the next level
	// Candidates / Emitted report reduction effectiveness live (both
	// cumulative): successors a full expansion would have generated vs
	// successors actually generated. Equal (and only then) when
	// Config.Reduce is off or never fired.
	Candidates int64
	Emitted    int64
}

// Kind identifies the job a progress event belongs to.
func (Progress) Kind() string { return "verify" }

func (p Progress) String() string {
	s := fmt.Sprintf("verify: %d states, %d edges, depth %d, frontier %d",
		p.States, p.Edges, p.Depth, p.Frontier)
	if p.Candidates > 0 {
		s += fmt.Sprintf(", succs %d/%d", p.Emitted, p.Candidates)
	}
	return s
}

// DefaultConfig mirrors the paper's setup: 3 caches, with symmetry
// reduction standing in for Murphi's scalarset. Parallelism 0 uses every
// core.
func DefaultConfig() Config {
	return Config{
		Caches: 3, Capacity: 4, Values: 2,
		MaxStates: 4_000_000, CheckSWMR: true, CheckValues: true,
		CheckLiveness: true, Symmetry: true, MaxViolations: 1,
	}
}

// QuickConfig is a 2-cache variant for fast unit tests.
func QuickConfig() Config {
	c := DefaultConfig()
	c.Caches = 2
	return c
}

// Violation is one invariant failure with a witness trace.
type Violation struct {
	Kind   string
	Detail string
	Trace  []string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s (trace length %d)", v.Kind, v.Detail, len(v.Trace))
}

// Result summarizes an exploration.
type Result struct {
	Protocol   string
	States     int
	Edges      int
	Depth      int
	Complete   bool
	Quiescent  int
	Violations []Violation
	// Canceled marks a partial result: the context given to CheckCtx was
	// canceled at a level boundary before exploration finished. Canceled
	// implies !Complete; canceled results are never cached.
	Canceled bool
	// Cached marks a result served from a ResultCache rather than a
	// fresh exploration. Never persisted: the cache strips it on Put and
	// the serving layer sets it on the returned copy.
	Cached bool `json:"Cached,omitempty"`
	// VisitedBytes is the visited set's retained footprint: exact for
	// the fingerprint table (allocated slot arrays), a documented
	// estimate for the exact set (key bytes + per-entry map overhead).
	VisitedBytes int64
	// FalseMerges counts fingerprint matches whose full keys differed —
	// populated only under Config.CollisionAudit, 0 otherwise.
	FalseMerges int
	// Canonicalization strategy counters (see engine.CanonStats), summed
	// over all workers: CanonFast states took a single encoding,
	// CanonTieStates resolved signature ties by enumerating tie-group
	// orderings (CanonTieEncodes candidate suffixes tried in total), and
	// CanonFallbacks were impure states, canonicalized by the
	// prefix-pruned permutation search (CanonSearchNodes partial
	// permutations kept in total). Zero when symmetry reduction is off.
	CanonFast        int64 `json:"CanonFast,omitempty"`
	CanonTieStates   int64 `json:"CanonTieStates,omitempty"`
	CanonTieEncodes  int64 `json:"CanonTieEncodes,omitempty"`
	CanonFallbacks   int64 `json:"CanonFallbacks,omitempty"`
	CanonSearchNodes int64 `json:"CanonSearchNodes,omitempty"`
	// Partial-order reduction counters (Config.Reduce). ReducedStates
	// counts states expanded through a proper ample subset;
	// CandidateSuccs / EmittedSuccs are the full-vs-emitted successor
	// totals (their ratio is the reduction ratio). ReduceUnsafe lists the
	// protocol-level analysis facts that disabled reduction entirely —
	// non-empty means the exploration silently ran full.
	// FusedSteps counts invisible rules executed inline by chain fusion
	// — each one an intermediate state the exploration never stored.
	ReducedStates  int64    `json:"ReducedStates,omitempty"`
	CandidateSuccs int64    `json:"CandidateSuccs,omitempty"`
	EmittedSuccs   int64    `json:"EmittedSuccs,omitempty"`
	FusedSteps     int64    `json:"FusedSteps,omitempty"`
	ReduceUnsafe   []string `json:"ReduceUnsafe,omitempty"`
	// Commutation-audit counters (Config.CommuteAudit): independent
	// pairs executed in both orders, and the discrepancies found (each
	// also reported as a "por-audit" violation).
	CommutePairs      int64 `json:"CommutePairs,omitempty"`
	CommuteMismatches int64 `json:"CommuteMismatches,omitempty"`
}

// OK reports whether the exploration finished with no violations.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d states, %d edges, depth %d", r.Protocol, r.States, r.Edges, r.Depth)
	if r.Canceled {
		b.WriteString(" (canceled)")
	} else if !r.Complete {
		b.WriteString(" (capped)")
	}
	if r.OK() {
		b.WriteString(" — PASS")
	} else {
		fmt.Fprintf(&b, " — FAIL: %s", r.Violations[0])
	}
	return b.String()
}

// visitedStore abstracts the visited table over its two backings: the
// exact set (full canonical keys, certain membership) and the
// fingerprint table (64-bit hash compaction, ~10x leaner). During a
// level's expansion the workers only call lookup (earlier levels are
// fully inserted before the level starts); the merge phase is the only
// caller of lookupMerge and insert.
type visitedStore interface {
	// lookup probes a raw key during parallel expansion without
	// copying it. hash is the key's engine.Fingerprint.
	lookup(key []byte, hash uint64) (int32, bool)
	// lookupMerge re-probes during the sequential merge (an earlier
	// successor in the same level may have claimed the key). key is ""
	// in fingerprint mode without audit.
	lookupMerge(key string, hash uint64) (int32, bool)
	// insert records a new state's index; merge phase only.
	insert(key string, hash uint64, idx int32)
	// count is the number of stored states; always equals the number
	// of state records — the checker inserts exactly once per record.
	count() int
	// bytes is the store's retained footprint (see Result.VisitedBytes).
	bytes() int64
	// falseMerges reports audited fingerprint collisions (0 elsewhere).
	falseMerges() int
}

// visitedShardBits fixes the exact set's shard count (64): enough to
// keep per-shard lock contention negligible at any realistic GOMAXPROCS
// without bloating small explorations.
const visitedShardBits = 6

// exactMapOverhead estimates the per-entry cost of a Go
// map[string]int32 beyond the key bytes themselves: the 16-byte string
// header plus the entry's amortized share of hash buckets (tophash,
// value, overflow pointers, sub-unity load factor) — roughly 32 bytes.
// bytes() is an accounting estimate for exact mode, not a measurement;
// the fingerprint table reports its allocation exactly.
const exactMapOverhead = 48

// exactSet is the exact visited table: binary canonical keys sharded by
// fingerprint, one RWMutex per shard.
type exactSet struct {
	shards [1 << visitedShardBits]exactShard
}

type exactShard struct {
	mu       sync.RWMutex
	m        map[string]int32 //protogen:guardedby mu
	keyBytes int64            //protogen:guardedby mu
}

func newExactSet() *exactSet {
	v := &exactSet{}
	for i := range v.shards {
		v.shards[i].m = make(map[string]int32)
	}
	return v
}

func (v *exactSet) shard(hash uint64) *exactShard {
	return &v.shards[hash&(1<<visitedShardBits-1)]
}

func (v *exactSet) lookup(key []byte, hash uint64) (int32, bool) {
	s := v.shard(hash)
	s.mu.RLock()
	idx, ok := s.m[string(key)]
	s.mu.RUnlock()
	return idx, ok
}

func (v *exactSet) lookupMerge(key string, hash uint64) (int32, bool) {
	s := v.shard(hash)
	s.mu.RLock()
	idx, ok := s.m[key]
	s.mu.RUnlock()
	return idx, ok
}

func (v *exactSet) insert(key string, hash uint64, idx int32) {
	s := v.shard(hash)
	s.mu.Lock()
	s.m[key] = idx
	s.keyBytes += int64(len(key))
	s.mu.Unlock()
}

func (v *exactSet) count() int {
	n := 0
	for i := range v.shards {
		s := &v.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

func (v *exactSet) bytes() int64 {
	var b int64
	for i := range v.shards {
		s := &v.shards[i]
		s.mu.RLock()
		b += s.keyBytes + int64(len(s.m))*exactMapOverhead
		s.mu.RUnlock()
	}
	return b
}

func (v *exactSet) falseMerges() int { return 0 }

// fpSet adapts store.Table to the visitedStore interface. Keys reach
// the table only in audit mode (the plain table never sees them).
type fpSet struct {
	t *store.Table
}

func newFpSet(audit bool) *fpSet {
	if audit {
		return &fpSet{t: store.NewAudited()}
	}
	return &fpSet{t: store.New()}
}

func (v *fpSet) lookup(key []byte, hash uint64) (int32, bool) {
	return v.t.Lookup(hash, key)
}

func (v *fpSet) lookupMerge(key string, hash uint64) (int32, bool) {
	var k []byte
	if v.t.Audited() {
		k = []byte(key)
	}
	return v.t.Lookup(hash, k)
}

func (v *fpSet) insert(key string, hash uint64, idx int32) {
	v.t.Insert(hash, key, idx)
}

func (v *fpSet) count() int       { return v.t.Len() }
func (v *fpSet) bytes() int64     { return v.t.Bytes() }
func (v *fpSet) falseMerges() int { return v.t.FalseMerges() }

type stateRec struct {
	parent int32
	depth  int32
	rule   string
}

// frontierItem is one state awaiting expansion.
type frontierItem struct {
	sys *engine.System
	idx int32
}

// succOut is one successor computed during parallel expansion.
type succOut struct {
	rule     string
	applyErr string
	hasErr   bool
	dataViol []string // data-value violations observed on performed loads
	knownIdx int32    // visited index at expansion time; -1 if unseen then
	key      string   // canonical key (set only when knownIdx < 0)
	hash     uint64
	sys      *engine.System // retained only when knownIdx < 0
	quiet    bool
	// seedParent: the collapse fused through a quiescent intermediate on
	// the way to this normal form. The quiescence witness belongs to the
	// PARENT (which really reaches that intermediate), not the normal
	// form, so merge seeds the parent in the liveness analysis.
	seedParent bool
}

// expansion is everything the merge needs about one frontier item.
type expansion struct {
	deadlock bool
	inFlight int
	succs    []succOut
}

// checker carries exploration state.
type checker struct {
	cfg     Config
	p       *ir.Protocol
	res     *Result
	visited visitedStore
	// needKey: workers must copy unseen states' canonical keys out for
	// the merge — always in exact mode, in fingerprint mode only under
	// collision audit. Skipping the copy is fingerprint mode's frontier
	// memory win.
	needKey bool
	// writerAt/readerAt classify the cache machine's stable states by
	// permission, indexed by state index (Ctrl.StIdx) so checkState
	// avoids per-cache map probes.
	writerAt []bool
	readerAt []bool
	recs     []stateRec
	// The successor graph (only when CheckLiveness), stored in compressed
	// sparse row form: state p's successors are edgeDst[edgeOff[p]:
	// edgeOff[p+1]]. Valid because merge expands states in index order,
	// so each state's successor run is contiguous — no per-state slice
	// headers, no per-state growth reallocations.
	edgeOff []int32
	edgeDst []int32
	quiet   []bool
	hits    []engine.LoadCheck // checkState scratch (merge phase only)
	perms   [][]int
	workers int
	// pool holds one persistent worker per expansion goroutine: encoders,
	// rule buffers and System free-lists survive across BFS levels, so
	// the steady-state expansion loop allocates only for states that
	// enter the frontier.
	pool []*worker
	// red holds the partial-order reducer (reduce.go); nil when
	// Config.Reduce is off or the dependence analysis refused the
	// protocol (Result.ReduceUnsafe).
	red *reducer
}

// Check explores the protocol's state space and returns the result.
// It is CheckCtx without cancellation.
func Check(p *ir.Protocol, cfg Config) *Result {
	return CheckCtx(context.Background(), p, cfg)
}

// CheckCtx explores the protocol's state space under ctx. Cancellation
// is observed at BFS level boundaries — the natural synchronization
// point of the level-parallel exploration — so a canceled check returns
// within one level's worth of work, with the partial counts explored so
// far and Result.Canceled set (verdicts on the explored prefix stand;
// the liveness pass, which needs the complete graph, is skipped).
func CheckCtx(ctx context.Context, p *ir.Protocol, cfg Config) *Result {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var visited visitedStore
	if cfg.Fingerprint {
		visited = newFpSet(cfg.CollisionAudit)
	} else {
		visited = newExactSet()
	}
	c := &checker{
		cfg:     cfg,
		p:       p,
		res:     &Result{Protocol: p.Name, Complete: true},
		visited: visited,
		needKey: !cfg.Fingerprint || cfg.CollisionAudit,
		workers: workers,
	}
	c.classifyPermissions()
	if cfg.Symmetry {
		c.perms = engine.Permutations(cfg.Caches)
	}
	c.pool = make([]*worker, workers)
	for i := range c.pool {
		c.pool[i] = &worker{c: c, enc: engine.NewEncoder(p)}
	}

	init := engine.NewSystem(p, engine.Config{
		Caches: cfg.Caches, Capacity: cfg.Capacity, Values: cfg.Values,
	})
	if cfg.Reduce {
		dep := depend.New(p)
		if dep.Safe() {
			c.red = newReducer(dep, init)
		} else {
			c.res.ReduceUnsafe = dep.Unsafe
		}
	}
	key := c.pool[0].enc.Canonical(init, c.perms)
	initKey := ""
	if c.needKey {
		initKey = string(key)
	}
	c.visited.insert(initKey, engine.Fingerprint(key), 0)
	c.recs = append(c.recs, stateRec{parent: -1})
	if cfg.CheckLiveness {
		c.edgeOff = append(c.edgeOff, 0)
		c.quiet = append(c.quiet, quiescent(init))
	}
	c.checkState(init, 0)

	frontier := []frontierItem{{sys: init, idx: 0}}
	for len(frontier) > 0 && len(c.res.Violations) < max(1, c.cfg.MaxViolations) && c.res.Complete {
		if ctx.Err() != nil {
			c.res.Canceled = true
			c.res.Complete = false
			break
		}
		exps := c.expand(frontier)
		if c.red != nil && cfg.CommuteAudit {
			c.drainAudit()
		}
		frontier = c.merge(frontier, exps)
		if cfg.Progress != nil {
			pr := Progress{
				States:   len(c.recs),
				Edges:    c.res.Edges,
				Depth:    c.res.Depth,
				Frontier: len(frontier),
			}
			if c.red != nil {
				for _, w := range c.pool {
					pr.Candidates += w.candTotal
					pr.Emitted += w.emitTotal
				}
			}
			cfg.Progress(pr)
		}
	}
	// States comes from the visited store, not the record slice, so
	// exact and fingerprint modes report through the same authority
	// (they agree by construction: one insert per record).
	c.res.States = c.visited.count()
	c.res.VisitedBytes = c.visited.bytes()
	c.res.FalseMerges = c.visited.falseMerges()
	var canon engine.CanonStats
	for _, w := range c.pool {
		canon.Add(w.enc.Stats())
	}
	c.res.CanonFast = int64(canon.Fast)
	c.res.CanonTieStates = int64(canon.TieStates)
	c.res.CanonTieEncodes = int64(canon.TieEncodes)
	c.res.CanonFallbacks = int64(canon.Fallbacks)
	c.res.CanonSearchNodes = int64(canon.SearchNodes)
	if c.red != nil {
		for _, w := range c.pool {
			c.res.ReducedStates += w.redStates
			c.res.CandidateSuccs += w.candTotal
			c.res.EmittedSuccs += w.emitTotal
			c.res.FusedSteps += w.fused
			c.res.CommutePairs += w.auditPairs
			c.res.CommuteMismatches += w.auditMism
		}
	}
	if cfg.CheckLiveness && c.res.Complete && len(c.res.Violations) == 0 {
		c.livenessCheck()
	}
	return c.res
}

// expand computes every frontier item's successors. Items are claimed in
// batches from a shared cursor, so fast workers steal the remainder of
// slow workers' share; each worker persists across levels, owning a
// reusable binary encoder, a rule buffer and a System free-list.
func (c *checker) expand(frontier []frontierItem) []expansion {
	out := make([]expansion, len(frontier))
	workers := min(c.workers, len(frontier))
	if workers <= 1 {
		w := c.pool[0]
		for i := range frontier {
			out[i] = w.expandItem(frontier[i])
		}
		return out
	}
	batch := len(frontier)/(workers*4) + 1
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				end := int(cursor.Add(int64(batch)))
				start := end - batch
				if start >= len(frontier) {
					return
				}
				for i := start; i < min(end, len(frontier)); i++ {
					out[i] = w.expandItem(frontier[i])
				}
			}
		}(c.pool[g])
	}
	wg.Wait()
	return out
}

// maxFreeList bounds each worker's System free-list so a level with many
// already-visited successors can't pin unbounded recycled memory. Sized
// to carry recycled capacity across the BFS frontier's shrink/grow
// phases: each System is roughly a kilobyte, so the cap costs at most a
// few MB per worker while keeping steady-state expansion allocation-free.
const maxFreeList = 4096

// worker is one expansion goroutine's private state, persistent across
// BFS levels.
type worker struct {
	c     *checker
	enc   *engine.Encoder
	rules []engine.Rule    // AppendRules scratch, reused every item
	free  []*engine.System // recycled Systems for CloneInto

	// Partial-order reduction state (used only when checker.red != nil;
	// see reduce.go). lvls is the collapse recursion's per-depth scratch
	// (separate rule buffers, since w.rules stays live across the item's
	// computeSuccs calls); chain is the current fused rule tail for edge
	// labels; pendViol carries data-value violations to the next emitted
	// normal form; outIdx / auditRules / auditErrs serve the commutation
	// audit; the counters feed Result and Progress.
	lvls       []fuseLevel
	chain      []engine.Rule
	fuseCnt    []int
	pendViol   []string
	stateFused bool
	outIdx     []int
	auditRules []engine.Rule
	auditErrs  []auditErr
	candTotal  int64
	emitTotal  int64
	redStates  int64
	fused      int64
	auditPairs int64
	auditMism  int64
}

// getClone clones src, reusing a free-listed System when one is available.
func (w *worker) getClone(src *engine.System) *engine.System {
	if n := len(w.free); n > 0 {
		dst := w.free[n-1]
		w.free = w.free[:n-1]
		return src.CloneInto(dst)
	}
	return src.Clone()
}

// recycle returns a System whose state is no longer referenced to the
// free-list. Safe because every Clone/CloneInto deep-copies: no other
// live state aliases the recycled backing arrays.
func (w *worker) recycle(s *engine.System) {
	if len(w.free) < maxFreeList {
		w.free = append(w.free, s)
	}
}

// expandItem enumerates one state's enabled rules, applies each to a
// clone, and canonicalizes the successors. Only reads shared checker
// state; previously visited states resolve here, unseen keys are copied
// out for the merge to adjudicate. Successors that resolve to visited
// states — and the expanded parent itself, dead once its successors are
// computed — are recycled into the worker's free-list, so steady-state
// expansion allocates only for states that enter the frontier.
func (w *worker) expandItem(it frontierItem) expansion {
	w.rules = it.sys.AppendRules(w.rules[:0])
	rules := w.rules
	if len(rules) == 0 && !quiescent(it.sys) {
		inFlight := it.sys.Net.InFlight()
		w.recycle(it.sys)
		return expansion{deadlock: true, inFlight: inFlight}
	}
	exp := expansion{succs: make([]succOut, 0, len(rules))}
	if w.c.red != nil {
		w.candTotal += int64(len(rules))
		w.stateFused = false
	}
	for ri := range rules {
		exp.succs = w.computeSuccs(it, rules[ri], exp.succs)
	}
	if w.c.red != nil {
		w.emitTotal += int64(len(exp.succs))
		if w.stateFused {
			w.redStates++
		}
	}
	w.recycle(it.sys)
	return exp
}

// computeSuccs applies one rule to a clone of the item's state and
// appends the resulting successor(s) to out. Without reduction that is
// exactly one normal canonicalized successor; with reduction the
// successor is collapsed to its normal forms first (reduce.go), which
// can branch into several.
func (w *worker) computeSuccs(it frontierItem, r engine.Rule, out []succOut) []succOut {
	succ := w.getClone(it.sys)
	performs, err := succ.Apply(r)
	if err != nil {
		w.recycle(succ)
		return append(out, succOut{knownIdx: -1, rule: r.String(), hasErr: true, applyErr: err.Error()})
	}
	w.pendViol = nil
	for _, pf := range performs {
		if pf.Access == ir.AccessLoad && !pf.Exempt && w.c.cfg.CheckValues && pf.Value != succ.LastWrite {
			w.pendViol = append(w.pendViol,
				fmt.Sprintf("cache %d load returned %d, last write is %d", pf.Node, pf.Value, succ.LastWrite)) // vethotpath:ignore — cold: violation path
		}
	}
	if w.c.red == nil {
		return append(out, w.finishSucc(succ, r, false))
	}
	w.chain = w.chain[:0]
	return w.collapse(succ, r, it, 0, false, out)
}

// merge folds a level's expansions into the exploration in frontier
// order — the single writer of the visited set, state records, edge lists
// and violations. Because items and successors are consumed in the same
// order the sequential FIFO BFS would produce, indices, counts and traces
// come out identical regardless of how many workers expanded the level.
func (c *checker) merge(frontier []frontierItem, exps []expansion) []frontierItem {
	limit := max(1, c.cfg.MaxViolations)
	var next []frontierItem
	for i := range exps {
		if len(c.res.Violations) >= limit {
			return nil
		}
		exp := &exps[i]
		parent := frontier[i].idx
		if exp.deadlock {
			c.violate("deadlock",
				fmt.Sprintf("no enabled rules with %d messages in flight", exp.inFlight), int(parent)) // vethotpath:ignore — cold: violation path
			if c.cfg.CheckLiveness {
				c.edgeOff = append(c.edgeOff, int32(len(c.edgeDst)))
			}
			continue
		}
		for _, so := range exp.succs {
			if so.hasErr {
				c.violateFrom("error", so.applyErr, int(parent), so.rule)
				continue
			}
			c.res.Edges++
			for _, d := range so.dataViol {
				c.violateFrom("data-value", d, int(parent), so.rule)
			}
			if so.seedParent && c.cfg.CheckLiveness {
				c.quiet[parent] = true
			}
			idx := so.knownIdx
			if idx < 0 {
				// Unseen at expansion time, but an earlier successor of
				// this same level may have claimed the key since.
				if j, ok := c.visited.lookupMerge(so.key, so.hash); ok {
					idx = j
				}
			}
			if idx >= 0 {
				if c.cfg.CheckLiveness {
					c.edgeDst = append(c.edgeDst, idx)
				}
				continue
			}
			ni := int32(len(c.recs))
			c.visited.insert(so.key, so.hash, ni)
			c.recs = append(c.recs, stateRec{parent: parent, rule: so.rule, depth: c.recs[parent].depth + 1})
			if c.cfg.CheckLiveness {
				c.edgeDst = append(c.edgeDst, ni)
				c.quiet = append(c.quiet, so.quiet)
			}
			if d := int(c.recs[ni].depth); d > c.res.Depth {
				c.res.Depth = d
			}
			c.checkState(so.sys, int(ni))
			if len(c.recs) >= c.cfg.MaxStates {
				c.res.Complete = false
				return nil
			}
			next = append(next, frontierItem{sys: so.sys, idx: ni})
		}
		// Parent's successor run is complete; seal its CSR row. Rows are
		// sealed in state-index order because the frontier is built in
		// discovery order and every state is expanded exactly once.
		if c.cfg.CheckLiveness {
			c.edgeOff = append(c.edgeOff, int32(len(c.edgeDst)))
		}
	}
	return next
}

// classifyPermissions derives reader/writer stable states from the FSM,
// into tables indexed by the cache machine's state index.
func (c *checker) classifyPermissions() {
	order := c.p.Cache.Order
	c.writerAt = make([]bool, len(order))
	c.readerAt = make([]bool, len(order))
	for i, n := range order {
		if st := c.p.Cache.State(n); st == nil || st.Kind != ir.Stable {
			continue
		}
		for _, t := range c.p.Cache.Find(n, ir.AccessEvent(ir.AccessLoad)) {
			for _, a := range t.Actions {
				if a.Op == ir.AHit {
					c.readerAt[i] = true
				}
			}
		}
		for _, t := range c.p.Cache.Find(n, ir.AccessEvent(ir.AccessStore)) {
			for _, a := range t.Actions {
				if a.Op == ir.AHit {
					c.writerAt[i] = true
				}
			}
		}
	}
}

// checkState evaluates the per-state invariants.
func (c *checker) checkState(s *engine.System, idx int) {
	if c.cfg.CheckSWMR {
		writers, readers := 0, 0
		for _, cc := range s.Caches {
			if cc.StIdx < 0 {
				continue
			}
			if c.writerAt[cc.StIdx] {
				writers++
			} else if c.readerAt[cc.StIdx] {
				readers++
			}
		}
		if writers > 1 || (writers == 1 && readers > 0) {
			c.violate("SWMR", fmt.Sprintf("%d writers, %d readers", writers, readers), idx) // vethotpath:ignore — cold: violation path
		}
	}
	if c.cfg.CheckValues {
		for i, cc := range s.Caches {
			if cc.StIdx >= 0 && (c.writerAt[cc.StIdx] || c.readerAt[cc.StIdx]) && cc.Data() != s.LastWrite {
				c.violate("data-value",
					fmt.Sprintf("cache %d in %s holds %d, last write is %d", i, cc.State, cc.Data(), s.LastWrite), idx) // vethotpath:ignore — cold: violation path
			}
		}
		c.hits = s.AppendHitLoads(c.hits[:0])
		for _, h := range c.hits {
			if h.Value != s.LastWrite {
				c.violate("data-value",
					fmt.Sprintf("cache %d transient load hit in %s reads %d, last write is %d", h.Cache, h.State, h.Value, s.LastWrite), idx) // vethotpath:ignore — cold: violation path
			}
		}
	}
}

// livenessCheck verifies that quiescence is reachable from every state
// (AG EF quiescent): reverse reachability from the quiescent set; any
// unreached state is a stuck transaction (livelock or partial deadlock).
// The state count comes from the visited store — the same authority in
// exact and fingerprint modes — so the "N of M states" report is
// consistent across modes (the quiet/edge slices are index-aligned with
// the store's insertion order in both).
func (c *checker) livenessCheck() {
	n := len(c.recs)
	if c.visited != nil { // nil only in direct test-harness construction
		n = c.visited.count()
	}
	// Invert the CSR successor graph into a CSR predecessor graph:
	// count in-degrees, prefix-sum into row offsets, then fill — two
	// passes, no per-state slices.
	predOff := make([]int32, n+1)
	for _, to := range c.edgeDst {
		predOff[to+1]++
	}
	for i := 0; i < n; i++ {
		predOff[i+1] += predOff[i]
	}
	predDst := make([]int32, len(c.edgeDst))
	cursor := append([]int32(nil), predOff[:n]...)
	for p := 0; p+1 < len(c.edgeOff); p++ {
		for _, to := range c.edgeDst[c.edgeOff[p]:c.edgeOff[p+1]] {
			predDst[cursor[to]] = int32(p)
			cursor[to]++
		}
	}
	reach := make([]bool, n)
	var stack []int32
	for i := 0; i < n; i++ {
		if c.quiet[i] {
			reach[i] = true
			stack = append(stack, int32(i))
		}
	}
	c.res.Quiescent = len(stack)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range predDst[predOff[v]:predOff[v+1]] {
			if !reach[p] {
				reach[p] = true
				stack = append(stack, p)
			}
		}
	}
	stuck, first := 0, -1
	for i := 0; i < n; i++ {
		if !reach[i] {
			stuck++
			if first < 0 {
				first = i
			}
		}
	}
	if stuck > 0 {
		c.violate("stuck",
			fmt.Sprintf("quiescence unreachable from %d of %d states (stuck transaction)", stuck, n), first) // vethotpath:ignore — cold: violation path
	}
}

// quiescent: nothing in flight, everything stable, no deferred work.
func quiescent(s *engine.System) bool {
	if s.Net.InFlight() > 0 {
		return false
	}
	for _, cc := range s.Caches {
		if cc.StIdx < 0 || !cc.L.StableAt[cc.StIdx] || len(cc.DeferQ) > 0 {
			return false
		}
	}
	d := s.Dir
	return d.StIdx >= 0 && d.L.StableAt[d.StIdx] && len(d.DeferQ) == 0
}

func (c *checker) violate(kind, detail string, idx int) {
	c.res.Violations = append(c.res.Violations, Violation{Kind: kind, Detail: detail, Trace: c.trace(idx)})
}

func (c *checker) violateFrom(kind, detail string, parentIdx int, rule string) {
	tr := append(c.trace(parentIdx), rule)
	c.res.Violations = append(c.res.Violations, Violation{Kind: kind, Detail: detail, Trace: tr})
}

// trace reconstructs the rule sequence from the initial state.
func (c *checker) trace(idx int) []string {
	var rev []string
	for i := idx; i > 0; i = int(c.recs[i].parent) {
		rev = append(rev, c.recs[i].rule)
	}
	out := make([]string, len(rev))
	for i, s := range rev {
		out[len(rev)-1-i] = s
	}
	return out
}
