package fam

import "testing"

// The artifact key strings are cache identities, X-Fam-Instance-Key
// values, and trace attributes at once: every kind is pinned byte for
// byte across the knobs that change it — coreset on/off (and whether it
// pruned), float32, exact-discrete, and the default or a disabled cache
// budget.
func TestArtifactKeyStrings(t *testing.T) {
	base := artifactKey{dataset: "hotels", seed: 9, n: 120, budget: 33554432}
	with := func(kind artifactKind, mod func(*artifactKey)) artifactKey {
		k := base
		k.kind = kind
		if mod != nil {
			mod(&k)
		}
		return k
	}
	cs := func(k *artifactKey) { k.eps = 0.05 }
	f32 := func(k *artifactKey) { k.f32 = true }
	exact := func(k *artifactKey) { k.exact, k.n = true, 0 }
	noBudget := func(k *artifactKey) { k.budget = -1 }
	sky := func(k *artifactKey) { k.sky = true }
	all := func(mods ...func(*artifactKey)) func(*artifactKey) {
		return func(k *artifactKey) {
			for _, m := range mods {
				m(k)
			}
		}
	}
	cases := []struct {
		key  artifactKey
		want string
	}{
		{with(kindSky, nil), "sky|hotels"},
		{with(kindSky, all(cs, f32, exact, noBudget)), "sky|hotels"},
		{with(kindFuncs, nil), "funcs|hotels|seed=9|N=120"},
		{with(kindFuncs, all(cs, f32, noBudget)), "funcs|hotels|seed=9|N=120"},

		{with(kindCoreset, all(sky, cs)), "coreset|hotels|sky|seed=9|N=120|exact=false|eps=0.05"},
		{with(kindCoreset, cs), "coreset|hotels|full|seed=9|N=120|exact=false|eps=0.05"},
		{with(kindCoreset, all(sky, cs, f32, noBudget)), "coreset|hotels|sky|seed=9|N=120|exact=false|eps=0.05"},
		{with(kindCoreset, all(cs, exact)), "coreset|hotels|full|seed=9|N=0|exact=true|eps=0.05"},

		{with(kindInst, sky), "inst|hotels|sky|seed=9|N=120|exact=false|budget=33554432"},
		{with(kindInst, nil), "inst|hotels|full|seed=9|N=120|exact=false|budget=33554432"},
		{with(kindInst, all(sky, cs)), "inst|hotels|sky+cs0.05|seed=9|N=120|exact=false|budget=33554432"},
		{with(kindInst, cs), "inst|hotels|full+cs0.05|seed=9|N=120|exact=false|budget=33554432"},
		{with(kindInst, all(sky, f32)), "inst|hotels|sky|seed=9|N=120|exact=false|budget=33554432|f32"},
		{with(kindInst, all(sky, cs, f32)), "inst|hotels|sky+cs0.05|seed=9|N=120|exact=false|budget=33554432|f32"},
		{with(kindInst, exact), "inst|hotels|full|seed=9|N=0|exact=true|budget=33554432"},
		{with(kindInst, noBudget), "inst|hotels|full|seed=9|N=120|exact=false|budget=-1"},
		{with(kindInst, all(sky, cs, f32, noBudget)), "inst|hotels|sky+cs0.05|seed=9|N=120|exact=false|budget=-1|f32"},

		{with(kindShare, sky), "hotels|sky=true|seed=9|N=120|exact=false|budget=33554432"},
		{with(kindShare, nil), "hotels|sky=false|seed=9|N=120|exact=false|budget=33554432"},
		{with(kindShare, all(sky, cs)), "hotels|sky=true|seed=9|N=120|exact=false|budget=33554432|cs=0.05"},
		{with(kindShare, all(sky, f32)), "hotels|sky=true|seed=9|N=120|exact=false|budget=33554432|f32"},
		{with(kindShare, all(sky, cs, f32)), "hotels|sky=true|seed=9|N=120|exact=false|budget=33554432|cs=0.05|f32"},
		{with(kindShare, exact), "hotels|sky=false|seed=9|N=0|exact=true|budget=33554432"},
		{with(kindShare, all(sky, noBudget)), "hotels|sky=true|seed=9|N=120|exact=false|budget=-1"},
	}
	for _, c := range cases {
		if got := c.key.String(); got != c.want {
			t.Errorf("%+v: got %q, want %q", c.key, got, c.want)
		}
	}
}
