package experiments

// Bit gates for the experiments: each test prints one experiment at a
// tiny scale and holds the output to bytes written before a change, so a
// change that claims to leave the figures alone shows that it does. The
// options reach every pipeline each experiment runs — the NN panels and
// Criteo-LG included — and all four validation modes. The goldens pin
// amd64's float arithmetic, where Go never fuses a multiply-add; a port
// that fuses them (arm64, ppc64le, s390x, riscv64) may differ in the last
// bits, so the tests skip there rather than fail.

import (
	"bytes"
	"os"
	"runtime"
	"testing"

	"repro/internal/validation"
)

var allModes = []validation.Mode{
	validation.ModeNoSLA, validation.ModeNPSLA,
	validation.ModeUncorrectedDP, validation.ModeSage,
}

var (
	fig5Tiny = Fig5Options{Sizes: []int{500, 1500}, Holdout: 2000, Seed: 91}
	fig6Tiny = Fig6Options{
		MaxStream: 800, MinSamples: 400, TargetsPerConfig: 1, Modes: allModes, Seed: 92,
	}
	fig7Tiny = Fig7Options{
		Sizes: []int{2000, 6000}, LRBlockSizes: []int{1000}, NNBlockSize: 2000,
		Targets: []float64{0.007}, MaxStream: 20000, Holdout: 2000, Seed: 93,
	}
	tab2Tiny = Tab2Options{
		Runs: 2, Stream: 8000, Holdout: 2000, Etas: []float64{0.01, 0.05}, Modes: allModes, Seed: 94,
	}
)

// tinyGoldens maps each golden file to the printer of its experiment.
var tinyGoldens = []struct {
	file  string
	print func(*bytes.Buffer)
}{
	{"fig5_tiny.golden", func(w *bytes.Buffer) { PrintFig5(w, Fig5(fig5Tiny)) }},
	{"fig6_tiny.golden", func(w *bytes.Buffer) { PrintFig6(w, Fig6(fig6Tiny)) }},
	{"fig7_tiny.golden", func(w *bytes.Buffer) { PrintFig7(w, Fig7Quality(fig7Tiny), Fig7Accept(fig7Tiny)) }},
	{"tab2_tiny.golden", func(w *bytes.Buffer) { PrintTab2(w, Tab2(tab2Tiny)) }},
}

func TestTinyGoldens(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the goldens pin amd64 float arithmetic")
	}
	for _, g := range tinyGoldens {
		t.Run(g.file, func(t *testing.T) {
			want, err := os.ReadFile("testdata/" + g.file)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			g.print(&got)
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("output differs from testdata/%s:\n got:\n%s\nwant:\n%s", g.file, got.Bytes(), want)
			}
		})
	}
}
