package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"

	"github.com/regretlab/fam"
)

// checker collects failed output checks; any failure makes the run
// incorrect and the command exit non-zero.
type checker struct {
	failures []string // the first failures, for the error output
	count    int
}

func (c *checker) fail(format string, args ...any) {
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
	c.count++
}

func (c *checker) ok() bool { return c.count == 0 }

// answer is the part of a selection every check and digest looks at.
type answer struct {
	Indices []int
	ARR     float64
}

// checkAnswer verifies that an answer has k distinct indices in [0, n)
// and an ARR in [0, 1].
func (c *checker) checkAnswer(label string, a answer, k, n int) {
	if len(a.Indices) != k {
		c.fail("%s: %d indices, want k=%d", label, len(a.Indices), k)
		return
	}
	seen := make(map[int]bool, k)
	for _, i := range a.Indices {
		if i < 0 || i >= n || seen[i] {
			c.fail("%s: index %d out of range [0,%d) or repeated", label, i, n)
			return
		}
		seen[i] = true
	}
	if !(a.ARR >= 0 && a.ARR <= 1) {
		c.fail("%s: ARR %v outside [0, 1]", label, a.ARR)
	}
}

// sameResult verifies that an Engine answer equals the one-shot
// fam.Select answer bit for bit (the Cached flag aside).
func (c *checker) sameResult(label string, got, want *fam.Result) {
	g, w := *got, *want
	g.Cached, w.Cached = false, false
	if !reflect.DeepEqual(g, w) {
		c.fail("%s: engine answer %v (arr %v) differs from one-shot Select %v (arr %v)",
			label, got.Indices, got.Metrics.ARR, want.Indices, want.Metrics.ARR)
	}
}

// digest hashes answers (indices and the ARR bits) in order, so two
// runs with the same seed can be compared by one short string.
func digest(answers []answer) string {
	h := sha256.New()
	var buf [8]byte
	for _, a := range answers {
		for _, i := range a.Indices {
			binary.LittleEndian.PutUint64(buf[:], uint64(i))
			h.Write(buf[:])
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(a.ARR))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// printDigest prints the digest of the run's fixed answer set.
func printDigest(answers []answer) {
	fmt.Printf("answers digest %s over %d answers\n", digest(answers), len(answers))
}

// reference returns q as plain GREEDY-SHRINK: the delta strategy with
// no coreset prepass, the exact greedy the approximations are measured
// against.
func reference(q fam.Query) fam.Query {
	q.Algorithm, q.Coreset = fam.GreedyShrink, false
	return q
}

// reportQuality reports arr_ratio, the mean over a fixed answer set of
// each answer's ARR divided by the ARR of its reference answer, and
// prints the plain mean ARR. The ratio is the quality guard: ARR itself
// varies several-fold between seeds at n = 10⁶, the ratio does not.
func (e *env) reportQuality(arrs, refs []float64) {
	ratios := make([]float64, len(arrs))
	for i := range arrs {
		ratios[i] = 1
		if refs[i] > 0 || arrs[i] > 0 {
			ratios[i] = arrs[i] / refs[i]
		}
	}
	if !e.traced {
		e.report("arr_ratio", mean(ratios), "ratio", len(ratios))
		info("arr_mean", mean(arrs), "ratio", len(arrs))
	}
}
