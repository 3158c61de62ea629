package prom

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// TestParse: the scrape parser reads exposition text into the flat
// sample map keyed as written, skipping comments and blank lines, and
// rejects a sample line without a value.
func TestParse(t *testing.T) {
	text := `# HELP fam_sched_granted_total Helper requests granted, by class.
# TYPE fam_sched_granted_total counter
fam_sched_granted_total{class="high"} 40
fam_sched_deficit_grants_total 5

fam_engine_uptime_seconds 1.25
`
	m, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 || m[`fam_sched_granted_total{class="high"}`] != 40 ||
		m["fam_sched_deficit_grants_total"] != 5 || m["fam_engine_uptime_seconds"] != 1.25 {
		t.Fatalf("parsed samples: %+v", m)
	}
	if _, err := Parse(strings.NewReader("garbage-without-value\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
}

// TestEscapedLabelRoundTrip pins the escaping rule: each label value
// is escaped exactly once (\ → \\, " → \", newline → \n, everything
// else verbatim) inside plain double quotes, and every sample the
// Writer emits parses back under the key it was written with.
func TestEscapedLabelRoundTrip(t *testing.T) {
	w := NewWriter()
	w.Family("m", "gauge", "Escaping cases.")
	w.Sample("m", Labels("v", `a"b`), 1)
	w.Sample("m", Labels("v", `c:\x`), 2)
	w.Sample("m", Labels("v", "line\nbreak"), 3)
	w.Sample("m", Labels("v", "Zürich ✓", "a", `q"\`+"\n"), 0.5)
	want := `# HELP m Escaping cases.
# TYPE m gauge
m{v="a\"b"} 1
m{v="c:\\x"} 2
m{v="line\nbreak"} 3
m{a="q\"\\\n",v="Zürich ✓"} 0.5
`
	if got := w.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
	m, err := Parse(strings.NewReader(w.String()))
	if err != nil {
		t.Fatal(err)
	}
	for key, v := range map[string]float64{
		`m{v="a\"b"}`:                 1,
		`m{v="c:\\x"}`:                2,
		`m{v="line\nbreak"}`:          3,
		`m{a="q\"\\\n",v="Zürich ✓"}`: 0.5,
	} {
		if got, ok := m[key]; !ok || got != v {
			t.Fatalf("parsed %s = %v (present %t), want %v; all: %v", key, got, ok, v, m)
		}
	}
}

// FuzzParse: Parse never panics on arbitrary input, and a sample the
// Writer emits with the input as a label value parses back to the same
// key and value.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = Parse(strings.NewReader(string(data)))

		value := float64(len(data)) / 8
		if len(data) >= 8 {
			value = math.Float64frombits(binary.LittleEndian.Uint64(data))
		}
		labels := Labels("endpoint", string(data), "le", "+Inf")
		w := NewWriter()
		w.Sample("fuzz_metric", labels, value)
		m, err := Parse(strings.NewReader(w.String()))
		if err != nil {
			t.Fatalf("writer output %q did not parse: %v", w.String(), err)
		}
		key := "fuzz_metric" + labels
		got, ok := m[key]
		if !ok || len(m) != 1 {
			t.Fatalf("writer output %q parsed to %v, want key %q", w.String(), m, key)
		}
		if got != value && !(math.IsNaN(got) && math.IsNaN(value)) {
			t.Fatalf("value %v parsed back as %v from %q", value, got, w.String())
		}
	})
}
