package fam

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// TestEngineCacheSharedAcrossExec is the acceptance test of the
// Query/Exec split: the same Query at different Parallelism settings
// must share one result-cache entry — exactly one fill, with the second
// answer served from the cache (Cached: true) even though its Exec
// differs.
func TestEngineCacheSharedAcrossExec(t *testing.T) {
	e := newTestEngine(t, engineFixtures(t))
	ctx := context.Background()
	q := Query{Dataset: "hotels", K: 5, Seed: 9, SampleSize: 120}

	first, _, err := e.Select(ctx, q, Exec{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("cold query reported Cached")
	}
	second, _, err := e.Select(ctx, q, Exec{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("same Query at Parallelism 8 did not hit the entry filled at Parallelism 1")
	}
	for i := range first.Indices {
		if second.Indices[i] != first.Indices[i] {
			t.Fatalf("cached answer differs: %v vs %v", second.Indices, first.Indices)
		}
	}
	if s := e.Stats(); s.ResultCache.Misses != 1 || s.ResultCache.Hits != 1 {
		t.Fatalf("result cache fills = %d hits = %d, want exactly 1 and 1", s.ResultCache.Misses, s.ResultCache.Hits)
	}

	// LazyBatch is execution policy too: a lazy query keyed once, shared
	// at any batch size.
	lazy := Query{Dataset: "hotels", K: 5, Seed: 9, SampleSize: 120, Algorithm: GreedyShrinkLazy}
	if _, _, err := e.Select(ctx, lazy, Exec{LazyBatch: 1}); err != nil {
		t.Fatal(err)
	}
	warm, _, err := e.Select(ctx, lazy, Exec{LazyBatch: 16, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("LazyBatch leaked into the result-cache key")
	}

	// The legacy shim funnels into the same cache: a v1-style call with
	// yet another Parallelism still hits.
	viaShim, err := e.SelectWithOptions(ctx, "hotels", SelectOptions{K: 5, Seed: 9, SampleSize: 120, Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !viaShim.Cached {
		t.Fatal("legacy shim bypassed the shared result cache")
	}
}

// TestEngineSelectBatchMatchesLoop: a batch answer must be bit-identical
// to issuing its members one at a time — SelectBatch is amortization,
// never approximation. Run under -race in CI: the member fan-out and
// the singleflight preprocessing sharing are exactly the concurrency
// this guards.
func TestEngineSelectBatchMatchesLoop(t *testing.T) {
	fixtures := engineFixtures(t)
	ctx := context.Background()

	// A mixed panel: k-sweep on hotels, an algorithm panel, a DP2D member
	// on the 2-d dataset, an evaluation member, and two failing members
	// (unknown dataset, bad K) to pin the per-slot error contract.
	queries := []Query{
		{Dataset: "hotels", K: 2, Seed: 9, SampleSize: 120},
		{Dataset: "hotels", K: 4, Seed: 9, SampleSize: 120},
		{Dataset: "hotels", K: 6, Seed: 9, SampleSize: 120},
		{Dataset: "hotels", K: 8, Seed: 9, SampleSize: 120},
		{Dataset: "hotels", K: 4, Seed: 9, SampleSize: 120, Algorithm: GreedyAdd},
		{Dataset: "hotels", K: 4, Seed: 9, SampleSize: 120, Algorithm: KHit},
		{Dataset: "grid2d", K: 3, Seed: 9, SampleSize: 120, Algorithm: DP2D},
		{Dataset: "tiny", Seed: 9, SampleSize: 120, ExplicitSet: []int{0, 3, 5}},
		{Dataset: "nope", K: 3},
		{Dataset: "hotels", K: 0},
	}

	// Ground truth: a fresh engine answering the members one at a time.
	loopEngine := newTestEngine(t, fixtures)
	wantRes := make([]*Result, len(queries))
	wantErr := make([]error, len(queries))
	for i, q := range queries {
		if q.ExplicitSet != nil {
			m, err := loopEngine.Evaluate(ctx, q, Exec{})
			if err != nil {
				wantErr[i] = err
				continue
			}
			wantRes[i] = &Result{Metrics: m}
			continue
		}
		res, _, err := loopEngine.Select(ctx, q, Exec{})
		wantRes[i], wantErr[i] = res, err
	}

	for _, par := range []int{0, 1, 4} {
		batchEngine := newTestEngine(t, fixtures)
		slots, err := batchEngine.SelectBatch(ctx, queries, Exec{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if len(slots) != len(queries) {
			t.Fatalf("par=%d: %d slots, want %d", par, len(slots), len(queries))
		}
		for i, slot := range slots {
			label := fmt.Sprintf("par=%d slot=%d", par, i)
			if wantErr[i] != nil {
				if slot.Err == nil || slot.Err.Error() != wantErr[i].Error() {
					t.Fatalf("%s: err = %v, want %v", label, slot.Err, wantErr[i])
				}
				continue
			}
			if slot.Err != nil {
				t.Fatalf("%s: unexpected error %v", label, slot.Err)
			}
			if queries[i].ExplicitSet != nil {
				if slot.Result.Metrics.ARR != wantRes[i].Metrics.ARR {
					t.Fatalf("%s: eval ARR %v, want %v", label, slot.Result.Metrics.ARR, wantRes[i].Metrics.ARR)
				}
				// No coreset prepass ran: −1, as Engine.Select reports it.
				if slot.Result.CoresetSize != -1 {
					t.Fatalf("%s: eval CoresetSize %d, want -1", label, slot.Result.CoresetSize)
				}
				continue
			}
			if len(slot.Result.Indices) != len(wantRes[i].Indices) {
				t.Fatalf("%s: %v, want %v", label, slot.Result.Indices, wantRes[i].Indices)
			}
			for j := range wantRes[i].Indices {
				if slot.Result.Indices[j] != wantRes[i].Indices[j] {
					t.Fatalf("%s: %v, want %v", label, slot.Result.Indices, wantRes[i].Indices)
				}
			}
			if slot.Result.Metrics.ARR != wantRes[i].Metrics.ARR ||
				slot.Result.ExactARR != wantRes[i].ExactARR ||
				slot.Result.SkylineSize != wantRes[i].SkylineSize {
				t.Fatalf("%s: metrics differ from loop", label)
			}
		}
		// The loop and the batch do the same preprocessing work: the
		// batch coalesces concurrent members onto single fills.
		if got, want := batchEngine.Stats().PrepCache.Misses, loopEngine.Stats().PrepCache.Misses; got != want {
			t.Fatalf("par=%d: batch did %d prep fills, loop did %d", par, got, want)
		}
	}
}

// TestEngineSelectBatchValidation pins the whole-batch failure modes.
func TestEngineSelectBatchValidation(t *testing.T) {
	e := newTestEngine(t, engineFixtures(t))
	ctx := context.Background()
	if _, err := e.SelectBatch(ctx, nil, Exec{}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("empty batch: %v", err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := e.SelectBatch(canceled, []Query{{Dataset: "hotels", K: 3}}, Exec{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled batch: %v", err)
	}
	e.Close()
	if _, err := e.SelectBatch(ctx, []Query{{Dataset: "hotels", K: 3}}, Exec{}); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("closed engine: %v", err)
	}
}

// TestEngineQueryBinding: Engine queries must name a registered dataset
// and must not carry inline data; one-shot queries must carry data.
func TestEngineQueryBinding(t *testing.T) {
	fixtures := engineFixtures(t)
	e := newTestEngine(t, fixtures)
	ctx := context.Background()

	if _, _, err := e.Select(ctx, Query{K: 3}, Exec{}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("nameless engine query: %v", err)
	}
	if _, _, err := e.Select(ctx, Query{Dataset: "hotels", Data: fixtures[0].ds, Dist: fixtures[0].dist, K: 3}, Exec{}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("inline data on engine query: %v", err)
	}
	if _, _, err := e.Select(ctx, Query{Dataset: "nope", K: 3}, Exec{}); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("unknown dataset: %v", err)
	}
	if _, err := e.Evaluate(ctx, Query{Dataset: "hotels", SampleSize: 50}, Exec{}); !errors.Is(err, ErrInvalidSet) {
		t.Fatalf("evaluate without set: %v", err)
	}
	if _, _, err := Select(ctx, Query{Dataset: "hotels", K: 3}, Exec{}); !errors.Is(err, ErrNilArgument) {
		t.Fatalf("one-shot query without data: %v", err)
	}
}
