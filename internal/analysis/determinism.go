package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// deterministicPkgs is the compute core reachable from an experiment
// cell: everything a cell's output may flow through. Inside it, the
// only randomness source is an explicitly seeded generator derived
// from the cell's coordinates (rng.MixSeed), and the wall clock is
// off-limits entirely — output must be bit-identical for any
// -workers setting.
var deterministicPkgs = []string{
	"internal/experiments",
	"internal/workload",
	"internal/rng",
	"internal/data",
	"internal/taxi",
	"internal/criteo",
	"internal/ml",
	"internal/linalg",
	"internal/stats",
	"internal/privacy",
	"internal/adaptive",
	"internal/pipeline",
}

// Determinism pins the ROADMAP "Determinism" invariant: no wall-clock
// reads and no global (process-seeded) math/rand in the deterministic
// compute packages. Explicit constructors (rand.New, rand.NewPCG,
// rand.NewSource, ...) are allowed — they take a seed the caller must
// derive from cell coordinates.
var Determinism = &Analyzer{
	Name:      "sage/determinism",
	Doc:       "forbid time.Now and global math/rand in the deterministic compute core",
	Invariant: "Determinism: cell output derives only from cell coordinates via rng.MixSeed",
	Applies: func(p string) bool {
		return pathIn(p, deterministicPkgs...)
	},
	Run: runDeterminism,
}

var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runDeterminism(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.Info.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			switch pn.Imported().Path() {
			case "time":
				if wallClockFuncs[sel.Sel.Name] {
					pass.Reportf(call.Pos(),
						"time.%s in deterministic package: cell output must derive only from cell coordinates (rng.MixSeed), never the wall clock",
						sel.Sel.Name)
				}
			case "math/rand", "math/rand/v2":
				if !strings.HasPrefix(sel.Sel.Name, "New") {
					pass.Reportf(call.Pos(),
						"global rand.%s in deterministic package: use an explicit generator seeded from cell coordinates (rng.MixSeed), not process-global randomness",
						sel.Sel.Name)
				}
			}
			return true
		})
	}
}
