package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// internalPrefix is the import path prefix of the packages whose
// exports TestEveryExportHasACaller holds to their callers. Keys in
// testOnly drop it: "privacy.StrongCompose", "core.AccessControl.X".
const internalPrefix = "repro/internal/"

// testOnly declares the exports of internal/ that no path from the
// program's roots reaches, and why each stays. A key with no dot names a
// whole package that only tests import. A row is a declaration, not a
// suppression: TestEveryExportHasACaller fails on a row whose export
// no longer exists or is reached from the program's roots.
var testOnly = map[string]string{
	"faulty": "fault injection for the gateway and replica tests",
	"safety": "the allocation-budget helpers the alloc tests assert with",

	"core.AccessControl.StreamLossWatermark":        "the race tests' lock-free probe of the ledger ceiling at every instant",
	"privacy.StrongCompose":                         "the strong-composition ablation (BenchmarkAblationComposition)",
	"privacy.AdaptiveStrongCompose":                 "the adaptive strong-composition ablation (BenchmarkAblationComposition)",
	"privacy.NewRDPAccountant":                      "the RDP accountant that root bench_test.go times and the calibration oracle sums",
	"privacy.RDPAccountant.AddSampledGaussianSteps": "the RDP accountant that root bench_test.go times and the calibration oracle sums",
	"privacy.RDPAccountant.Epsilon":                 "the RDP accountant that root bench_test.go times and the calibration oracle sums",
	"privacy.LaplaceMechanism.Cost":                 "what a noise site's charge-equals-spend check reads (ROADMAP direction 10)",
	"metrics.Families.Value":                        "reads one scraped sample back in the /metrics tests of the gateway, WAL, daemon and sagectl",
	"metrics.Histogram.Count":                       "reads an observation count back in the metrics and gateway tests",
	"data.Dataset.Clone":                            "the pipeline tests hand each Run a copy it may reorder",
	"data.Dataset.Append":                           "builds test datasets row by row in the data, ml, pipeline, adaptive, taxi and criteo tests",
	"ml.NaiveMeanModel":                             "the baseline model of the ml, pipeline and taxi tests",
	"pipeline.StatisticsPipeline.Run":               "Table 1's statistics pipeline, which no experiment runs yet",
}

// TestEveryExportHasACaller holds every exported function and method
// declared in a non-test file under internal/ to a path from the
// program's roots in non-test code of the root module or of bench/ (its
// own module, which the root build never sees), or to a testOnly row,
// and each row to an export that no such path reaches. ./... skips
// testdata, so the analysis fixtures are not covered.
//
// The walk starts at every main, every init and every package-level
// variable initializer of both modules, and at every method whose name
// and signature match a method of error or of an interface declared in
// a package the program imports (fmt.Stringer, http.Handler, ml.Model,
// math/rand/v2's Source): it is called through that interface. From a
// function it follows every function or method its body names,
// unexported ones included, so an export called only from dead code is
// dead too. The testOnly rows are roots last: what a test-only export
// calls is live, but a row is stale only if the program reaches it.
//
// The two modules are type-checked apart, so one function is two
// objects; functions are keyed by package path, receiver and name.
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

	exports := make(map[string]bool)      // export key -> declared under internal/
	refs := make(map[string][]string)     // function key -> functions its body names
	var roots []string                    // functions the program runs without a caller
	pkgFuncs := make(map[string][]string) // package key -> every function it declares
	imported := make(map[string]bool)     // package key -> non-test code imports it
	ifaces := interfaceMethods(pkgs)
	for _, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			imported[strings.TrimPrefix(imp.Path(), internalPrefix)] = true
		}
		pkg := strings.TrimPrefix(p.ImportPath, internalPrefix)
		internal := strings.HasPrefix(p.ImportPath, internalPrefix)
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					// A package-level var's initializer runs at start-up.
					roots = append(roots, namedFuncs(p, d)...)
					continue
				}
				fn := p.Info.Defs[fd.Name].(*types.Func)
				key := exportKey(fn)
				refs[key] = append(refs[key], namedFuncs(p, fd)...)
				pkgFuncs[pkg] = append(pkgFuncs[pkg], key)
				switch {
				case fd.Recv != nil && ifaces[methodShape(fn)],
					fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && p.Types.Name() == "main"):
					roots = append(roots, key)
				case internal && fd.Name.IsExported():
					exports[key] = true
				}
			}
		}
	}

	reached := make(map[string]bool)
	reach := func(from ...string) {
		for len(from) > 0 {
			key := from[len(from)-1]
			from = from[:len(from)-1]
			if !reached[key] {
				reached[key] = true
				from = append(from, refs[key]...)
			}
		}
	}
	reach(roots...)
	live := maps.Clone(reached)
	for key := range testOnly {
		if strings.Contains(key, ".") {
			reach(key)
		} else {
			reach(pkgFuncs[key]...)
		}
	}

	var missing []string
	for key := range exports {
		if !reached[key] {
			missing = append(missing, key)
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		t.Errorf("%s: no path from a main, an init or a package-level initializer of either module reaches it; delete it, move it into a _test.go file, or add a testOnly row", key)
	}
	for key, reason := range testOnly {
		if reason == "" {
			t.Errorf("testOnly row %q: no reason given", key)
		}
		if !strings.Contains(key, ".") {
			if _, ok := pkgFuncs[key]; !ok {
				t.Errorf("testOnly row %q: no such package; drop the row", key)
			} else if imported[key] {
				t.Errorf("testOnly row %q: non-test code imports the package; drop the row", key)
			}
		} else if !exports[key] {
			t.Errorf("testOnly row %q: no such export; drop the row", key)
		} else if live[key] {
			t.Errorf("testOnly row %q: the export has a caller now; drop the row", key)
		}
	}
}

// namedFuncs returns the key of every function or method that n names.
func namedFuncs(p *Package, n ast.Node) []string {
	var keys []string
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := p.Info.Uses[id].(*types.Func); ok && fn.Pkg() != nil {
				keys = append(keys, exportKey(fn.Origin()))
			}
		}
		return true
	})
	return keys
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

// interfaceMethods returns the shape of every method of error, of
// every interface type declared at package level in the loaded
// packages or in anything they import, the standard library included,
// and of the one method the context package looks for unexported.
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
	// context's afterFuncer is unexported, so no export data shows it,
	// but the context package calls the method by its shape: "If ctx
	// has a "AfterFunc(func()) func() bool" method, AfterFunc will use
	// it to schedule the call" (context.AfterFunc), and a context
	// derived from ctx registers with it the same way.
	shapes["AfterFunc"+"func(func()) func() bool"] = true
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
