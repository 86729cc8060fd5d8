package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// internalPrefix is the import path prefix of the packages whose
// exports TestEveryExportHasACaller holds to their callers. Keys in
// testOnly drop it: "privacy.StrongCompose", "core.AccessControl.X".
const internalPrefix = "repro/internal/"

// testOnly declares the exports of internal/ that no non-test code in
// either module calls, and why each stays. A key with no dot names a
// whole package that only tests import. A row is a declaration, not a
// suppression: TestEveryExportHasACaller fails on a row whose export
// no longer exists or has gained a caller.
var testOnly = map[string]string{
	"faulty": "fault injection for the gateway and replica tests",
	"safety": "the allocation-budget helpers the alloc tests assert with",

	"replica.WithRetry":                             "test seam: the replica tests shorten the publisher's retry schedule",
	"core.AccessControl.StreamLossWatermark":        "the race tests' lock-free probe of the ledger ceiling at every instant",
	"privacy.StrongCompose":                         "the strong-composition ablation (BenchmarkAblationComposition)",
	"privacy.AdaptiveStrongCompose":                 "the adaptive strong-composition ablation (BenchmarkAblationComposition)",
	"privacy.NewRDPAccountant":                      "the RDP accountant that root bench_test.go times and the calibration oracle sums",
	"privacy.RDPAccountant.AddSampledGaussianSteps": "the RDP accountant that root bench_test.go times and the calibration oracle sums",
	"privacy.RDPAccountant.Epsilon":                 "the RDP accountant that root bench_test.go times and the calibration oracle sums",
	"privacy.LaplaceMechanism.Cost":                 "what a noise site's charge-equals-spend check reads (ROADMAP direction 10)",
	"metrics.Families.Value":                        "reads one scraped sample back in the /metrics tests of the gateway, WAL, daemon and sagectl",
	"metrics.Histogram.Count":                       "reads an observation count back in the metrics and gateway tests",
	"trace.Span.TraceID":                            "the trace tests compare propagated ids",
	"trace.Span.SpanID":                             "the trace tests compare propagated ids",
	"data.Dataset.Clone":                            "the pipeline tests hand each Run a copy it may reorder",
	"data.Dataset.Append":                           "builds test datasets row by row in the data, ml, pipeline, adaptive, taxi and criteo tests",
	"ml.NaiveMeanModel":                             "the baseline model of the ml, pipeline and taxi tests",
	"pipeline.StatisticsPipeline.Run":               "Table 1's statistics pipeline, which no experiment runs yet",
}

// TestEveryExportHasACaller holds every exported function and method
// declared in a non-test file under internal/ to a caller in non-test
// code of the root module or of bench/ (its own module, which the root
// build never sees), or to a testOnly row, and each row to an export
// that still has no caller. ./... skips testdata, so the analysis
// fixtures are not covered. A call from inside the export's own body
// does not count. A method also counts as called when its name and
// signature match a method of error or of an interface declared in a
// package the program imports (fmt.Stringer, http.Handler, ml.Model,
// math/rand/v2's Source): it is called through that interface.
//
// The two modules are type-checked apart, so one function is two
// objects; exports are keyed by package path, receiver and name.
func TestEveryExportHasACaller(t *testing.T) {
	root := repoRoot(t)
	var pkgs []*Package
	for _, dir := range []string{root, filepath.Join(root, "bench")} {
		loaded, err := Load(dir, "./...")
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		pkgs = append(pkgs, loaded...)
	}

	type body struct {
		fset     *token.FileSet
		pos, end token.Pos
	}
	exports := make(map[string]body)  // export key -> its declaration's body
	imported := make(map[string]bool) // package key -> non-test code imports it
	loaded := make(map[string]bool)   // package key -> declared under internal/
	ifaces := interfaceMethods(pkgs)
	for _, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			imported[strings.TrimPrefix(imp.Path(), internalPrefix)] = true
		}
		if !strings.HasPrefix(p.ImportPath, internalPrefix) {
			continue
		}
		loaded[strings.TrimPrefix(p.ImportPath, internalPrefix)] = true
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.Info.Defs[fd.Name].(*types.Func)
				if fd.Recv != nil && ifaces[methodShape(fn)] {
					continue
				}
				exports[exportKey(fn)] = body{p.Fset, fd.Pos(), fd.End()}
			}
		}
	}

	called := make(map[string]bool)
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				continue
			}
			key := exportKey(fn.Origin())
			if b, ok := exports[key]; ok && !(b.fset == p.Fset && b.pos <= id.Pos() && id.Pos() < b.end) {
				called[key] = true
			}
		}
	}

	var missing []string
	for key := range exports {
		pkg, _, _ := strings.Cut(key, ".")
		_, declared := testOnly[key]
		if _, pkgDeclared := testOnly[pkg]; !called[key] && !declared && !pkgDeclared {
			missing = append(missing, key)
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		t.Errorf("%s: no non-test code of either module calls it; delete it, move it into a _test.go file, or add a testOnly row", key)
	}
	for key, reason := range testOnly {
		if reason == "" {
			t.Errorf("testOnly row %q: no reason given", key)
		}
		if !strings.Contains(key, ".") {
			if !loaded[key] {
				t.Errorf("testOnly row %q: no such package; drop the row", key)
			} else if imported[key] {
				t.Errorf("testOnly row %q: non-test code imports the package; drop the row", key)
			}
		} else if _, ok := exports[key]; !ok {
			t.Errorf("testOnly row %q: no such export; drop the row", key)
		} else if called[key] {
			t.Errorf("testOnly row %q: the export has a caller now; drop the row", key)
		}
	}
}

// exportKey names fn by its package path under internal/, its
// receiver's type name if it is a method, and its own name.
func exportKey(fn *types.Func) string {
	key := strings.TrimPrefix(fn.Pkg().Path(), internalPrefix) + "."
	if recv := fn.Signature().Recv(); recv != nil {
		typ := recv.Type()
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		if named, ok := typ.(*types.Named); ok {
			key += named.Obj().Name() + "."
		}
	}
	return key + fn.Name()
}

// methodShape is a method's name and signature, receiver and parameter
// names left out, in a form that compares across separately
// type-checked modules.
func methodShape(fn *types.Func) string {
	sig := fn.Signature()
	unnamed := func(t *types.Tuple) *types.Tuple {
		vars := make([]*types.Var, t.Len())
		for i := range vars {
			vars[i] = types.NewParam(token.NoPos, nil, "", t.At(i).Type())
		}
		return types.NewTuple(vars...)
	}
	return fn.Name() + types.TypeString(types.NewSignatureType(nil, nil, nil, unnamed(sig.Params()), unnamed(sig.Results()), sig.Variadic()), nil)
}

// interfaceMethods returns the shape of every method of error and of
// every interface type declared at package level in the loaded
// packages or in anything they import, the standard library included.
func interfaceMethods(pkgs []*Package) map[string]bool {
	shapes := make(map[string]bool)
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				shapes[methodShape(it.Method(i))] = true
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := make(map[string]bool)
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if seen[tp.Path()] {
			return
		}
		seen[tp.Path()] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.Types)
	}
	return shapes
}
