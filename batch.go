package fam

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/regretlab/fam/internal/obs"
)

// BatchResult is one member slot of a SelectBatch answer. Exactly one of
// (Result, Err) is meaningful: a failed member carries its error without
// poisoning its siblings.
type BatchResult struct {
	// Result and Telemetry answer the member query (Result.Cached marks
	// result-cache hits, as in Select). For evaluation members
	// (ExplicitSet set) Result carries the evaluated set and its Metrics.
	Result    *Result
	Telemetry *Telemetry
	// Err is the member's failure, nil on success. Match it with
	// errors.Is against the usual sentinels (ErrBadOptions,
	// ErrUnknownDataset, ErrInvalidSet, ErrShed, …).
	Err error
}

// SelectBatch answers a panel of semantic queries under one execution
// policy: a k-sweep, an algorithm comparison, or any mix of selection
// and evaluation members (members may even target different registered
// datasets).
//
// The batch is planned before it runs:
//
//  1. Members with identical Query.Fingerprint()s are deduplicated —
//     one leader per fingerprint runs, the duplicates copy its slot
//     (selection duplicates marked Cached, exactly as a sequential loop
//     would answer them from the result cache). The dedup is a planning
//     decision, not a race: it holds at any timing, unlike singleflight
//     coalescing. EngineStats.PlannedDedups counts the copies.
//  2. The remaining members are grouped by InstanceKey — the (dataset,
//     skyline eligibility, seed, sample size, exactness, cache budget,
//     coreset ε, float32) fields of the artifact key that determine
//     which preprocessing artifacts they share. EngineStats.PlanGroups
//     counts the groups.
//  3. Each group runs its representative first, filling the shared
//     preprocessing (skyline index, sampled functions, built instance),
//     then releases the rest of the group concurrently onto the warm
//     cache. Groups run concurrently with each other, bounded by
//     Exec.Parallelism when set. Grouping is a planning heuristic, not
//     a guarantee: a member whose K reaches the skyline size falls back
//     to the full-candidate instance at execution time, so such mixed
//     groups may still coalesce a second instance build on the
//     singleflight path — correct either way, just less planned.
//
// Every member gets its own answer slot: one bad member yields an Err in
// its slot while the rest of the batch completes. The returned slice
// always has len(queries) entries, in order. The call-level error is
// reserved for whole-batch failures (a closed Engine, an empty batch, a
// canceled context, batch-level admission).
//
// Each member is answered exactly as Engine.Select/Engine.Evaluate would
// answer it — same result cache, same Fingerprint keys, same
// bit-identity guarantees — so a batch is semantically equivalent to a
// loop, just planned. Member Telemetry reports QueueWait as the member's
// own pool grant waits plus the time it spent waiting for its plan slot.
func (e *Engine) SelectBatch(ctx context.Context, queries []Query, exec Exec) ([]BatchResult, error) {
	if e.closed.Load() {
		return nil, ErrEngineClosed
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBadOptions)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, span := obs.Start(ctx, "engine.batch")
	span.SetAttrInt("members", len(queries))
	defer span.End()
	// Batch-level admission: a batch whose deadline has already passed
	// (or that arrives over its queue bound) is shed whole — cheaper for
	// the caller to handle than len(queries) identical member sheds.
	if err := e.admitTraced(ctx, exec); err != nil {
		return nil, err
	}
	// Counter-update order is part of the EngineStats snapshot contract:
	// member queries are added before the batch itself (every batch has
	// at least one member, so BatchQueries ≥ Batches holds at every
	// instant), and the planner's PlannedDedups/PlanGroups — always
	// bounded by the member count — are added below, after BatchQueries.
	// Stats() loads the counters in the matching order, so its snapshots
	// can never show the inequalities torn mid-batch.
	e.batchQueries.Add(uint64(len(queries)))
	e.batches.Add(1)

	// MaxQueue admission was consumed by the batch-level check above:
	// the members of an admitted batch fan out together, so their own
	// helper tickets would count against the bound and an admitted batch
	// would shed itself under zero external load — something a
	// sequential loop (depth ~0 at each admit) never does. Deadline
	// admission stays per member: a loop re-checks it before every
	// Select too, so shedding not-yet-started members whose deadline
	// passed is exactly loop-equivalent.
	memberExec := exec
	memberExec.MaxQueue = 0

	_, planSpan := obs.Start(ctx, "plan")
	pl := e.plan(queries)
	planSpan.SetAttrInt("groups", len(pl.groups))
	planSpan.SetAttrInt("dedups", len(pl.copies))
	planSpan.End()
	e.planGroups.Add(uint64(len(pl.groups)))
	e.plannedDedups.Add(uint64(len(pl.copies)))

	out := make([]BatchResult, len(queries))
	// Member fan-out width: the Exec's Parallelism when set (the batch is
	// one workload — its worker bound covers the members too), otherwise
	// every member at once; the shared pool bounds the actual helper
	// goroutines either way.
	width := exec.Parallelism
	if width <= 0 || width > len(queries) {
		width = len(queries)
	}
	sem := make(chan struct{}, width)
	start := time.Now()
	runMember := func(i int, groupKey string) {
		sem <- struct{}{}
		defer func() { <-sem }()
		wait := time.Since(start)
		// Every member span shares the batch's collector — and so its
		// TraceID. The representative carries the plan-group key in its
		// context, so the prep fills it triggers are attributable to the
		// group (their spans gain a group attr via fetch).
		mctx, mspan := obs.Start(ctx, "member")
		mspan.SetAttrInt("index", i)
		if groupKey != "" {
			mctx = withPlanGroupKey(mctx, groupKey)
		}
		out[i] = e.member(mctx, queries[i], memberExec)
		mspan.End()
		if out[i].Telemetry != nil {
			// The member's Telemetry already carries its own pool grant
			// waits (attributed per query on the Select/Evaluate path);
			// the plan-slot wait behind the representative and the width
			// bound is added on top.
			out[i].Telemetry.QueueWait += wait
		}
	}
	var wg sync.WaitGroup
	for _, g := range pl.groups {
		wg.Add(1)
		go func(g planGroup) {
			defer wg.Done()
			// The representative runs alone first: it fills the group's
			// shared preprocessing exactly once, so the released members
			// find a warm cache instead of a singleflight door.
			runMember(g.rep, g.key)
			var members sync.WaitGroup
			for _, i := range g.rest {
				members.Add(1)
				go func(i int) {
					defer members.Done()
					runMember(i, "")
				}(i)
			}
			members.Wait()
		}(g)
	}
	wg.Wait()
	// Planned duplicates copy their leader's slot after the fan-out —
	// bit-identical to re-asking, without re-asking. Each copy is marked
	// in the trace: a member span that did no work beyond the copy.
	for dup, leader := range pl.copies {
		_, dspan := obs.Start(ctx, "member")
		dspan.SetAttrInt("index", dup)
		dspan.SetAttrBool("dedup", true)
		out[dup] = copySlot(out[leader], queries[dup].ExplicitSet == nil)
		dspan.End()
	}
	return out, nil
}

// plan is the batch execution plan: fingerprint-deduplicated members
// arranged into instance-key groups.
type plan struct {
	groups []planGroup
	// copies maps a duplicate member index to the leader member whose
	// slot it copies.
	copies map[int]int
}

// planGroup is one set of members sharing preprocessing: rep runs
// first, rest follow on the warm cache. key is the preprocessing-
// sharing key the group was formed under, carried into the
// representative's context so its prep-fill spans are attributable.
type planGroup struct {
	rep  int
	rest []int
	key  string
}

// plan dedupes and groups a batch. Grouping is best-effort: a member
// whose query cannot be resolved or normalized gets its own group and
// reports its real error from the member path — planning never
// invents new failure modes.
func (e *Engine) plan(queries []Query) plan {
	leaders := make(map[string]int, len(queries))
	copies := make(map[int]int)
	groupIdx := make(map[string]int)
	var groups []planGroup
	for i, q := range queries {
		if fp, err := q.Fingerprint(); err == nil {
			if leader, ok := leaders[fp]; ok {
				copies[i] = leader
				continue
			}
			leaders[fp] = i
		}
		key := e.planKey(q, i)
		if gi, ok := groupIdx[key]; ok {
			groups[gi].rest = append(groups[gi].rest, i)
		} else {
			groupIdx[key] = len(groups)
			groups = append(groups, planGroup{rep: i, key: key})
		}
	}
	return plan{groups: groups, copies: copies}
}

// planKey derives the member's preprocessing-sharing key: the fields of
// the instance cache key that are known before anything is built. The
// skyline-eligibility flag stands in for the real instance class, which
// also depends on the (not yet computed) skyline size vs K — members on
// the wrong side of that comparison share preprocessing through
// singleflight instead of the plan. Unresolvable members key uniquely
// (by index) so they fail in their own slot without serializing behind
// a group.
func (e *Engine) planKey(q Query, i int) string {
	if key := e.InstanceKey(q); key != "" {
		return key
	}
	return fmt.Sprintf("solo|%d", i)
}

// InstanceKey returns the preprocessing-sharing identity of q: the
// artifact key fields known before anything is built — dataset, skyline
// eligibility, seed, sample size N, exactness, cache budget, and (when
// set) coreset ε and float32 storage — which determine the cached
// preprocessing artifacts (skyline index, sampled functions, coreset,
// built instance) the query reuses. It is the batch planner's grouping
// key, and the key the serve layer echoes as X-Fam-Instance-Key so a
// cluster router can learn which replica's prep cache is warm for which
// queries. Equal Fingerprints imply equal InstanceKeys, never the
// reverse: a k-sweep over one dataset shares a single instance key
// across distinct fingerprints. Returns "" for a query that does not
// resolve against the registry.
func (e *Engine) InstanceKey(q Query) string {
	reg, err := e.resolve(q)
	if err != nil {
		return ""
	}
	norm, err := deriveQuery(reg.ds, reg.dist, q, q.ExplicitSet == nil)
	if err != nil {
		return ""
	}
	key := newArtifactKey(kindShare, reg.name, q, norm)
	key.sky = norm.useSkyline
	if norm.useCoreset {
		key.eps = norm.coresetEps
	}
	return key.String()
}

// copySlot answers a planned duplicate from its leader's slot. A
// selection duplicate is marked Cached and its Telemetry mirrors the
// result-cache hit contract — a sequential loop would have answered it
// from the result cache the leader filled, reporting its own near-zero
// execution with the computing execution's Telemetry under Replay (a
// leader that was itself a hit already carries the filler there).
// Evaluation duplicates keep the leader's timings verbatim: evaluations
// are recomputed (deterministically) by a loop, so there is no cache
// contract to mirror. Neither kind carries a Trace — the copy did not
// execute; the batch trace marks it with a dedup=true member span.
func copySlot(leader BatchResult, selection bool) BatchResult {
	if leader.Err != nil {
		return BatchResult{Err: leader.Err}
	}
	res := copyResult(leader.Result)
	if selection {
		res.Cached = true
	}
	var tel *Telemetry
	if leader.Telemetry != nil {
		cp := *leader.Telemetry
		cp.Trace = nil
		if selection {
			replay := cp
			if cp.Replay != nil {
				replay = *cp.Replay
			}
			tel = &Telemetry{Replay: &replay}
		} else {
			tel = &cp
		}
	}
	return BatchResult{Result: res, Telemetry: tel}
}

// member answers one batch slot: selection members go through the
// result-cached Select path, evaluation members through the shared
// evaluate path with the metrics wrapped into a Result for a uniform
// slot shape.
func (e *Engine) member(ctx context.Context, q Query, exec Exec) BatchResult {
	if q.ExplicitSet == nil {
		res, tel, err := e.Select(ctx, q, exec)
		return BatchResult{Result: res, Telemetry: tel, Err: err}
	}
	m, reg, tel, err := e.evaluate(ctx, q, exec)
	if err != nil {
		return BatchResult{Err: err}
	}
	res := &Result{
		Indices:     append([]int(nil), q.ExplicitSet...),
		Metrics:     m,
		ExactARR:    -1,
		SkylineSize: reg.ds.N(), // evaluation preprocessing never restricts
		CoresetSize: -1,
	}
	res.Labels = make([]string, len(res.Indices))
	for i, idx := range res.Indices {
		res.Labels[i] = reg.ds.Label(idx)
	}
	return BatchResult{Result: res, Telemetry: tel, Err: nil}
}
