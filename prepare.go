package fam

import (
	"context"
	"errors"
	"fmt"

	"github.com/regretlab/fam/internal/core"
	"github.com/regretlab/fam/internal/coreset"
	"github.com/regretlab/fam/internal/obs"
	"github.com/regretlab/fam/internal/rng"
	"github.com/regretlab/fam/internal/sampling"
	"github.com/regretlab/fam/internal/sched"
	"github.com/regretlab/fam/internal/skyline"
	"github.com/regretlab/fam/internal/utility"
)

// prepared is the per-(dataset, distribution, seed) preprocessing state a
// query runs against: the candidate set (skyline-restricted when the
// distribution allows it), the sampled utility functions, and the built
// core.Instance with its materialized utility matrix.
type prepared struct {
	candidates []int
	funcs      []UtilityFunc
	weights    []float64
	in         *core.Instance
	// skylineSize is the candidate count before the coreset prepass
	// (what Result.SkylineSize reports); coresetSize is the count after
	// it, or −1 when the prepass was off.
	skylineSize int
	coresetSize int
}

// store fetches one preprocessing artifact by key, running fill on a
// miss. An Engine's prep cache (LRU + singleflight, detached fills) is
// one; memo is the call-local one of one-shot queries.
type store interface {
	Do(ctx context.Context, key string, fill func(context.Context) (any, error)) (val any, hit bool, err error)
}

// memo is the call-local store of a one-shot query: a plain map whose
// fills run inline under the caller's context, so cancellation returns
// promptly and an artifact needed twice (the sampled functions of a
// Coreset query) is still built once.
type memo map[string]any

func (m memo) Do(ctx context.Context, key string, fill func(context.Context) (any, error)) (any, bool, error) {
	if v, ok := m[key]; ok {
		return v, true, nil
	}
	v, err := fill(ctx)
	if err != nil {
		return nil, false, err
	}
	m[key] = v
	return v, false, nil
}

// artifactKind names one preprocessing artifact; its String is the key
// prefix and the suffix of the "fill.<kind>" trace span.
type artifactKind uint8

const (
	kindSky     artifactKind = iota // skyline index
	kindFuncs                       // sampled utility functions
	kindCoreset                     // ε-kernel survivor index
	kindInst                        // built instance (utility matrix + best-point index)
	kindShare                       // Engine.InstanceKey: the identity known before any build
)

func (k artifactKind) String() string {
	return [...]string{"sky", "funcs", "coreset", "inst", "share"}[k]
}

// artifactKey is the typed identity of one preprocessing artifact. Each
// kind reads only the fields it depends on, and String is the cache key
// (and trace key attribute) every store sees.
type artifactKey struct {
	kind    artifactKind
	dataset string
	// sky is the candidate class: skyline-restricted rather than the full
	// dataset. For kindShare it is the skyline eligibility, since whether
	// the skyline exceeds K is not known before it is built.
	sky bool
	// seed and n fix the sampled functions; exact marks an exact-discrete
	// instance (n = 0).
	seed  uint64
	n     int
	exact bool
	// eps is the coreset tolerance: always set for kindCoreset, and for
	// kindInst/kindShare only when the prepass applies (zero otherwise).
	eps    float64
	budget int64 // effective cache budget (see effectiveBudget)
	f32    bool
}

// newArtifactKey is the part of the identity a query fixes before
// anything is built.
func newArtifactKey(kind artifactKind, dataset string, q Query, norm normalized) artifactKey {
	return artifactKey{kind: kind, dataset: dataset, seed: q.Seed, n: norm.sampleSize,
		exact: norm.discrete != nil, budget: effectiveBudget(q.CacheBudget), f32: q.Float32}
}

func (k artifactKey) String() string {
	class := "full"
	if k.sky {
		class = "sky"
	}
	switch k.kind {
	case kindSky:
		return "sky|" + k.dataset
	case kindFuncs:
		return fmt.Sprintf("funcs|%s|seed=%d|N=%d", k.dataset, k.seed, k.n)
	case kindCoreset:
		return fmt.Sprintf("coreset|%s|%s|seed=%d|N=%d|exact=%t|eps=%g",
			k.dataset, class, k.seed, k.n, k.exact, k.eps)
	}
	var s string
	if k.kind == kindInst {
		if k.eps != 0 {
			class += fmt.Sprintf("+cs%g", k.eps)
		}
		s = fmt.Sprintf("inst|%s|%s|seed=%d|N=%d|exact=%t|budget=%d",
			k.dataset, class, k.seed, k.n, k.exact, k.budget)
	} else {
		// Opt-in knobs append conditionally so established keys stay
		// byte-stable, like the Fingerprint.
		s = fmt.Sprintf("%s|sky=%t|seed=%d|N=%d|exact=%t|budget=%d",
			k.dataset, k.sky, k.seed, k.n, k.exact, k.budget)
		if k.eps != 0 {
			s += fmt.Sprintf("|cs=%g", k.eps)
		}
	}
	if k.f32 {
		s += "|f32"
	}
	return s
}

// fetch resolves one artifact through the store. A miss's fill runs in
// a "fill.<kind>" span annotated with the key (plus the plan-group key
// when a batch group's representative triggered it), under the build's
// scheduling attrs.
func fetch[T any](ctx context.Context, st store, key artifactKey, build Exec, fill func(context.Context, *obs.Span) (T, error)) (T, error) {
	k := key.String()
	v, _, err := st.Do(ctx, k, func(fillCtx context.Context) (any, error) {
		fillCtx = sched.NewContext(fillCtx, build.attrs())
		fillCtx, span := obs.Start(fillCtx, "fill."+key.kind.String())
		defer span.End()
		span.SetAttr("key", k)
		if g := planGroupKeyFrom(fillCtx); g != "" {
			span.SetAttr("group", g)
		}
		v, err := fill(fillCtx, span)
		if err != nil {
			return nil, err
		}
		markShared(fillCtx, span)
		return v, nil
	})
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// prepare runs the preprocessing pipeline of Section III-D2 — skyline
// restriction, sampled Θ, the optional coreset prepass, and the built
// instance — fetching every artifact through st. It is the one pipeline
// behind both entry points: an Engine passes its prep cache and builds
// at full pool width under attr-neutral scheduling (build = Exec{pool}),
// so the first requester's knobs never shape a shared artifact; one-shot
// calls pass a memo and build under their own Exec. Either way the
// returned instance is a zero-copy clone carrying exec's settings, and
// preprocessing output is bit-identical at any width.
func prepare(ctx context.Context, st store, reg *registration, q Query, norm normalized, build, exec Exec) (*prepared, error) {
	ctx, span := obs.Start(ctx, "prepare")
	defer span.End()
	ds := reg.ds
	key := newArtifactKey(kindInst, reg.name, q, norm)

	// Step 1: skyline restriction for monotone Θ (every user's favorite is
	// a skyline point, so arr over the skyline equals arr over the
	// database), kept only when it leaves more than K candidates.
	var candidates []int
	if norm.useSkyline {
		sky, err := fetch(ctx, st, newArtifactKey(kindSky, reg.name, q, norm), build,
			func(ctx context.Context, _ *obs.Span) ([]int, error) {
				return skyline.ComputeOpts(ctx, ds.Points, skyline.ComputeOptions{
					Workers: build.Parallelism, Pool: build.pool, Sched: build.attrs()})
			})
		if err != nil {
			return nil, err
		}
		if len(sky) > q.K {
			candidates, key.sky = sky, true
		}
	}
	if candidates == nil {
		candidates = identity(ds.N())
	}

	// Step 2: sample Θ (or take the discrete support verbatim with its
	// probabilities — Appendix A). Exact-discrete support is not cached.
	funcs := func(ctx context.Context) ([]UtilityFunc, []float64, error) {
		if norm.discrete != nil {
			return norm.discrete.Funcs, norm.discrete.Probs, nil
		}
		fs, err := fetch(ctx, st, newArtifactKey(kindFuncs, reg.name, q, norm), build,
			func(ctx context.Context, _ *obs.Span) ([]UtilityFunc, error) {
				_, span := obs.Start(ctx, "buildFuncs")
				defer span.End()
				fs, err := sampling.Sample(reg.dist, norm.sampleSize, rng.New(q.Seed))
				span.SetAttrInt("funcs", len(fs))
				return fs, err
			})
		return fs, nil, err
	}

	// Step 3 (opt-in): the ε-kernel coreset prepass drops candidates that
	// are never within ε of best for any sampled user. It runs after
	// sampling because the kernel is defined against the drawn functions,
	// and like the skyline it applies only when it leaves more than K.
	skySize, csSize := len(candidates), -1
	if norm.useCoreset {
		csKey := key
		csKey.kind, csKey.eps = kindCoreset, norm.coresetEps
		cs, err := fetch(ctx, st, csKey, build, func(ctx context.Context, span *obs.Span) ([]int, error) {
			fs, _, err := funcs(ctx)
			if err != nil {
				return nil, err
			}
			cs, err := coreset.Filter(ctx, ds.Points, candidates, fs, coreset.Options{
				Eps: norm.coresetEps, Parallelism: build.Parallelism, Pool: build.pool, Sched: build.attrs()})
			if err != nil {
				return nil, err
			}
			span.SetAttrInt("in", len(candidates))
			span.SetAttrInt("out", len(cs))
			return cs, nil
		})
		if err != nil {
			return nil, err
		}
		if len(cs) > q.K {
			candidates, key.eps = cs, norm.coresetEps
		}
		csSize = len(candidates)
	}

	// Step 4: materialize utilities and index best points.
	master, err := fetch(ctx, st, key, build, func(ctx context.Context, _ *obs.Span) (*prepared, error) {
		fs, ws, err := funcs(ctx)
		if err != nil {
			return nil, err
		}
		return assemble(ctx, ds, candidates, fs, ws, q, build)
	})
	if err != nil {
		return nil, err
	}
	prep := *master
	prep.in = master.in.WithExecution(exec.Parallelism, exec.LazyBatch, build.pool, exec.fillAttrs())
	prep.skylineSize, prep.coresetSize = skySize, csSize
	return &prep, nil
}

// assemble restricts the point set to the candidates and builds the
// core.Instance (utility materialization + best-point indexing).
func assemble(ctx context.Context, ds *Dataset, candidates []int, funcs []UtilityFunc, weights []float64, q Query, exec Exec) (*prepared, error) {
	_, span := obs.Start(ctx, "assemble")
	span.SetAttrInt("candidates", len(candidates))
	defer span.End()
	points := ds.Points
	if len(candidates) != ds.N() {
		// Index-based utility functions would be misaligned on a
		// restricted candidate set; monotone vector distributions never
		// sample them, but guard against a mismatched registration.
		for _, f := range funcs {
			if _, ok := f.(utility.Table); ok {
				return nil, errors.New("fam: index-based utility functions cannot be combined with skyline or coreset preprocessing")
			}
		}
		points = make([][]float64, len(candidates))
		for i, c := range candidates {
			points[i] = ds.Points[c]
		}
	}
	in, err := core.NewInstance(points, funcs, core.Options{
		CacheBudget: q.CacheBudget,
		Weights:     weights,
		Float32:     q.Float32,
		Parallelism: exec.Parallelism,
		LazyBatch:   exec.LazyBatch,
		Pool:        exec.pool,
		Sched:       exec.attrs(),
	})
	if err != nil {
		return nil, err
	}
	return &prepared{candidates: candidates, funcs: funcs, weights: weights, in: in}, nil
}

// effectiveBudget normalizes CacheBudget for cache keys: zero means the
// default, every negative value means "disabled".
func effectiveBudget(budget int64) int64 {
	if budget == 0 {
		return core.DefaultCacheBudget
	}
	if budget < 0 {
		return -1
	}
	return budget
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
