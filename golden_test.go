package secmgpu

// Golden determinism digests. The simulation must be bit-reproducible: for
// a fixed (experiment, scale, seed) the rendered table is byte-identical
// across runs, machines, and — critically — kernel rewrites. The digests
// below were captured from the pre-rewrite engine (container/heap queue,
// unpooled messages), so they prove the specialized event queue, the
// cancellable-timer migration, and message pooling preserved the event
// order exactly.
//
// If a change legitimately alters simulation behaviour (a model change, not
// a kernel change), regenerate with:
//
//	go test -run 'TestGolden' -v -update-golden

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"testing"

	"secmgpu/internal/sweep"
)

var updateGolden = flag.Bool("update-golden", false, "print current golden digests instead of comparing")

// goldenFig21 maps workload scale to the sha256 of fig21's CSV rendering,
// captured before the zero-alloc kernel rewrite.
var goldenFig21 = map[float64]string{
	0.02: "9a248465c5c23190fadfb23a0813aa0877d2eb63558ac98dfb17dbf111a23bfb",
	0.10: "5e52704c792b0e7b8bd65c5a716c8af9a6f270625e712f5f97d6de6728ee30fd",
}

// goldenFig25 maps workload scale to the sha256 of fig25's CSV rendering
// (16 GPUs, seed 1). The digests were captured while the simulator still
// had a partitioned parallel kernel, and both kernels produced them; the
// largest topology is where that kernel ran, so these pin its removal.
var goldenFig25 = map[float64]string{
	0.02: "dcb2e38733ce5b3db9095f74513d3a3548b26ee20f99534c4450f986ddedba53",
	0.10: "1964e0517343cd868e21336dfa5511ad65a4ec170e057b6aa3e7122bc896ca61",
}

func experimentDigest(t *testing.T, exp string, gpus int, scale float64) string {
	t.Helper()
	p := ExperimentParams{GPUs: gpus, Scale: scale, Seed: 1, Engine: sweep.New(0)}
	table, err := RunExperiment(exp, p)
	if err != nil {
		t.Fatalf("%s at scale %v: %v", exp, scale, err)
	}
	sum := sha256.Sum256([]byte(table.CSV()))
	return hex.EncodeToString(sum[:])
}

// checkGolden compares exp's digests against want. The bench-scale (0.10)
// digest is the acceptance invariant; it is skipped under -short where
// the cheap 0.02 digest still guards the event order.
func checkGolden(t *testing.T, exp string, gpus int, want map[float64]string) {
	scales := []float64{0.02}
	if !testing.Short() {
		scales = append(scales, 0.10)
	}
	for _, scale := range scales {
		got := experimentDigest(t, exp, gpus, scale)
		if *updateGolden {
			t.Logf("%s scale=%v sha256=%s", exp, scale, got)
			continue
		}
		if got != want[scale] {
			t.Errorf("%s digest at scale %v = %s, want %s\n"+
				"the simulation's event order changed: either a kernel change broke determinism "+
				"(a bug) or a model change legitimately altered results (update the digest)",
				exp, scale, got, want[scale])
		}
	}
}

// TestGoldenFig21Digest proves the 4-GPU experiment tables are
// byte-identical to the pre-rewrite kernel's output.
func TestGoldenFig21Digest(t *testing.T) {
	checkGolden(t, "fig21", 4, goldenFig21)
}

// TestGoldenFig25Digest proves the 16-GPU tables are byte-identical to
// the output of both kernels the simulator used to have.
func TestGoldenFig25Digest(t *testing.T) {
	checkGolden(t, "fig25", 16, goldenFig25)
}
