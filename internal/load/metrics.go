package load

import (
	"strings"

	fam "github.com/regretlab/fam"
)

// classOf extracts the class label value from a per-class series key
// like `fam_sched_granted_total{class="low"}`.
func classOf(key string) (string, bool) {
	const marker = `{class="`
	i := strings.Index(key, marker)
	if i < 0 {
		return "", false
	}
	rest := key[i+len(marker):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return "", false
	}
	return rest[:j], true
}

// EngineStatsFromMetrics reconstructs the EngineStats fields the
// report's cache/sched delta views need from one /metrics scrape as
// read by prom.Parse — famload's HTTP-mode stats probe. Series
// famload does not report on are left at zero.
func EngineStatsFromMetrics(m map[string]float64) fam.EngineStats {
	var s fam.EngineStats
	s.PrepCache.Hits = uint64(m[`fam_cache_hits_total{cache="prep"}`])
	s.PrepCache.Misses = uint64(m[`fam_cache_misses_total{cache="prep"}`])
	s.ResultCache.Hits = uint64(m[`fam_cache_hits_total{cache="result"}`])
	s.ResultCache.Misses = uint64(m[`fam_cache_misses_total{cache="result"}`])
	s.Sched.DeficitGrants = uint64(m["fam_sched_deficit_grants_total"])
	for key, v := range m {
		class, ok := classOf(key)
		if !ok || !strings.HasPrefix(key, "fam_sched_") {
			continue
		}
		if s.Sched.PerClass == nil {
			s.Sched.PerClass = map[string]fam.SchedClassStats{}
		}
		cs := s.Sched.PerClass[class]
		switch {
		case strings.HasPrefix(key, "fam_sched_granted_total"):
			cs.Granted = uint64(v)
			s.Sched.Granted += uint64(v)
		case strings.HasPrefix(key, "fam_sched_shed_total"):
			cs.Shed = uint64(v)
		case strings.HasPrefix(key, "fam_sched_stale_total"):
			cs.Stale = uint64(v)
		}
		s.Sched.PerClass[class] = cs
	}
	return s
}
