package raxml

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The exported surface guard. Every exported top-level func, method,
// type, var and const declared in a non-test file under internal/, or in
// raxml.go, needs a caller in a non-test file of the checkout (bench/,
// examples/, cmd/ and scripts/ included), or an entry in
// surfaceAllowlist naming the test that keeps it and why.
//
// The scan is syntactic (go/parser only, no type checking), so a use is
// matched by name:
//   - pkg.Name, where pkg resolves through the file's imports;
//   - an unqualified Name inside the declaring package, outside the
//     declaration itself and outside method receivers;
//   - for a method, a selector .Name anywhere but on an imported
//     package name (strings.Split names no method Split);
//     a facade method (one of raxml.go's) only where the facade is
//     imported, since its callers are examples/, cmd/ and bench/.
//
// Every rule can only over-count uses, so the guard under-reports: what
// it flags has no caller.

// surfaceEntry keeps one export that has no non-test caller.
type surfaceEntry struct {
	key    string // pkg.Name, or pkg.Recv.Method for a method
	test   string // a test that uses it
	reason string
}

// surfaceAllowlist is every export that is kept for tests only. A
// reference path or ablation switch is kept so that a test can check the
// production path against it; a cross-package fixture builds inputs for
// other packages' tests.
var surfaceAllowlist = []surfaceEntry{
	// Reference paths and ablation switches.
	{"likelihood.Engine.SetLegacyMakenewz", "TestOptimizeAllBranchesSumtableGolden",
		"reference path: the full-matrix makenewz the sumtable Newton loop is pinned to"},
	{"likelihood.SetCoarseInvalidation", "TestOutputsIdenticalAcrossKernelsAndInvalidation",
		"reference path: whole-tree invalidation, which precise invalidation must match bit for bit"},
	{"likelihood.SetMemoBypass", "TestMemoDistributed",
		"reference path: fresh transition matrices, which the memo must match bit for bit"},
	{"likelihood.Engine.SetPerNodeDispatch", "TestPerNodeDispatchAblation",
		"ablation switch: one dispatch per descriptor entry, what batching is measured against"},
	{"likelihood.Engine.EvaluateInsertion", "TestSPRFuzzInvalidationExact",
		"reference path: one candidate scored alone, which a batched scan must match"},
	{"likelihood.Engine.PartitionLogLikelihoods", "TestPartitionedIndependentModelsSum",
		"reference path: per-partition components, which must sum to LogLikelihood"},
	{"likelihood.EstimateMemoryBytesPartitioned", "TestPartitionedMemoryEstimateExact",
		"reference path: the closed-form footprint the engine's one reservation is checked against"},
	{"parsimony.Engine.Score", "TestInsertionScoresMatchScore",
		"reference path: the whole-tree Fitch fold stepwise insertion scores are pinned to"},
	{"tree.Tree.RemoveTip", "TestInsertionScoresMatchScore",
		"reference path: undoes each physically inserted candidate of the insertion-score check"},

	// Cross-package test fixtures and probes.
	{"likelihood.Engine.LastTraversal", "TestOneBroadcastOneReductionPerDispatch",
		"probe: the descriptor the last dispatch planned, counted by finegrain tests"},
	{"likelihood.Engine.ModelBlocksEncoded", "TestScanShipsNoModelBlock",
		"probe: model-sync blocks the master encoded, counted by search and finegrain tests"},
	{"fabric.FaultConn", "TestGridChaosWireCorruption",
		"fixture: a net.Conn that flips bytes below the framing, for the CRC tests of fabric and grid"},
	{"fabric.FaultLink.InjectStats", "TestFineDeadRankIsAnError",
		"probe: the faults a link injected, counted by fabric and core tests"},
	{"finegrain.Run", "TestReplicateStreamDigests",
		"fixture: an in-process R×T distributed engine for search and rapidbs tests"},
	{"gtr.JukesCantor", "TestGoldenScalingDeepTree",
		"fixture: the closed-form JC69 model"},
	{"msa.ContiguousPartitions", "TestWorkerInitRoundTrip",
		"fixture: n equal contiguous genes over an alignment"},
	{"tree.Balanced", "TestMajorityConflictCollapses",
		"fixture: a balanced topology"},
	{"tree.Caterpillar", "TestFineOutputDigests",
		"fixture: a fully pectinate topology"},
}

// interfaceMethods are the method names that standard interfaces call
// for their implementers (fmt, errors, sort, heap, io, encoding, http).
var interfaceMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true, "Timeout": true, "Temporary": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "Seek": true,
	"ReadFrom": true, "WriteTo": true, "ReadAt": true, "WriteAt": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
	"ServeHTTP": true, "Lock": true, "Unlock": true,
}

func TestExportedSurface(t *testing.T) {
	s, err := scanSurface(".", []string{"internal"}, []string{"raxml.go"})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.check(surfaceAllowlist) {
		t.Error(p)
	}
	if len(surfaceAllowlist) > 18 {
		t.Errorf("allowlist has %d entries, at most 18 are allowed", len(surfaceAllowlist))
	}
}

// TestExportedSurfaceFixture runs the scanner on a fixture checkout of
// two modules (testdata/surface and its bench/ module). It must flag the
// export only a test uses, the type only its own receivers name, the
// facade methods no facade importer calls (one shares its name with a
// function of an imported package) and both kinds of stale
// allowlist entry — and not the export only the separate module calls,
// nor an Unwrap method nothing calls.
func TestExportedSurfaceFixture(t *testing.T) {
	s, err := scanSurface(filepath.Join("testdata", "surface"), []string{"internal"}, []string{"fixture.go"})
	if err != nil {
		t.Fatal(err)
	}
	got := s.check([]surfaceEntry{
		{"lib.Kept", "TestKept", "reference path"},
		{"lib.Gone", "TestKept", "stale: no such declaration"},
		{"lib.Used", "TestKept", "stale: cmd/app calls it"},
	})
	want := []string{
		"fixture.Result.Plain (fixture.go): exported, but used by no file",
		"fixture.Result.Println (fixture.go): exported, but used by no file",
		"lib.Gone: allowlisted, but not declared",
		"lib.Orphan (internal/lib/lib.go): exported, but used by no file",
		"lib.TestOnly (internal/lib/lib.go): exported, but used by tests only",
		"lib.Used (internal/lib/lib.go): allowlisted, but has a non-test caller",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// export is one exported declaration.
type export struct {
	key  string
	file string // slash path relative to the root
	used bool   // by a non-test file
	test bool   // by a test file
	// facade is the import path of a method declared in one of
	// declFiles: it counts as used only where that package is imported.
	facade string
}

// surface is the result of a scan.
type surface struct {
	exports map[string]*export
	tests   map[string]bool // Test* functions of every test file
}

// goFile is a parsed file of the checkout.
type goFile struct {
	rel  string // slash path relative to the root
	path string // import path of its package
	ast  *ast.File
	test bool
}

// scanSurface parses every .go file under root, outside testdata and
// hidden directories. Exports are collected from the non-test files of
// declDirs and declFiles (both relative to root); uses from every file.
// A directory holding a go.mod starts a module of its own, like bench/.
func scanSurface(root string, declDirs, declFiles []string) (*surface, error) {
	fset := token.NewFileSet()
	var files []*goFile
	modules := map[string]string{} // directory (slash, relative) -> module path
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			name := d.Name()
			if rel != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if mod, err := modulePath(filepath.Join(p, "go.mod")); err == nil {
				modules[rel] = mod
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, &goFile{rel: rel, ast: f, test: strings.HasSuffix(rel, "_test.go")})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if _, ok := modules["."]; !ok {
		return nil, fmt.Errorf("%s: no go.mod", root)
	}
	for _, f := range files {
		f.path = importPath(modules, f.rel)
	}

	declared := func(rel string) bool {
		for _, d := range declDirs {
			if strings.HasPrefix(rel, d+"/") {
				return true
			}
		}
		return slices.Contains(declFiles, rel)
	}
	s := &surface{exports: map[string]*export{}, tests: map[string]bool{}}
	pkgName := map[string]string{} // import path -> package name
	pkgOf := map[string]string{}   // package name -> import path
	byName := map[string]map[string]*export{}
	methods := map[string][]*export{}
	for _, f := range files {
		if f.test {
			for _, d := range f.ast.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
					s.tests[fn.Name.Name] = true
				}
			}
			continue
		}
		if !declared(f.rel) {
			continue
		}
		name := f.ast.Name.Name
		if other, ok := pkgOf[name]; ok && other != f.path {
			return nil, fmt.Errorf("package name %s is declared by %s and %s", name, other, f.path)
		}
		pkgOf[name], pkgName[f.path] = f.path, name
		if byName[f.path] == nil {
			byName[f.path] = map[string]*export{}
		}
		add := func(id, key string) *export {
			e := &export{key: key, file: f.rel}
			if id == "" && slices.Contains(declFiles, f.rel) {
				e.facade = f.path
			}
			s.exports[key] = e
			if id != "" {
				byName[f.path][id] = e
			}
			return e
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					add(d.Name.Name, name+"."+d.Name.Name)
				} else if !interfaceMethods[d.Name.Name] {
					e := add("", name+"."+recvName(d.Recv)+"."+d.Name.Name)
					methods[d.Name.Name] = append(methods[d.Name.Name], e)
				}
			case *ast.GenDecl:
				for _, sp := range d.Specs {
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() {
							add(sp.Name.Name, name+"."+sp.Name.Name)
						}
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							if id.IsExported() {
								add(id.Name, name+"."+id.Name)
							}
						}
					}
				}
			}
		}
	}

	for _, f := range files {
		imports := map[string]string{}            // local name -> import path
		imported := map[string]bool{f.path: true} // import paths in scope
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			local := pkgName[p]
			if local == "" {
				local = p[strings.LastIndex(p, "/")+1:]
			}
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local], imported[p] = p, true
		}
		mark := func(e *export) {
			if f.test {
				e.test = true
			} else {
				e.used = true
			}
		}
		own := byName[f.path]
		if f.test && strings.HasSuffix(f.ast.Name.Name, "_test") {
			own = nil // an external test package sees only qualified names
		}
		for _, d := range f.ast.Decls {
			self := declNames(d)
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						if e := byName[imports[x.Name]][n.Sel.Name]; e != nil {
							mark(e)
						}
						return false // pkg.Name is a package-level reference, not a method call
					}
					for _, e := range methods[n.Sel.Name] {
						if e.facade == "" || imported[e.facade] {
							mark(e)
						}
					}
					ast.Inspect(n.X, visit) // n.Sel is a field or method, not a package-level name
					return false
				case *ast.Ident:
					if e := own[n.Name]; e != nil && !self[n.Name] {
						mark(e)
					}
				}
				return true
			}
			if fn, ok := d.(*ast.FuncDecl); ok {
				// The name is declared, not used, and a receiver names
				// the type a method extends.
				ast.Inspect(fn.Type, visit)
				if fn.Body != nil {
					ast.Inspect(fn.Body, visit)
				}
			} else {
				ast.Inspect(d, visit)
			}
		}
	}
	return s, nil
}

// check returns the findings of a scan against an allowlist, sorted:
// exports with no non-test caller that the allowlist misses, and
// allowlist entries that are stale or name no test.
func (s *surface) check(allow []surfaceEntry) []string {
	var out []string
	listed := map[string]bool{}
	for _, a := range allow {
		listed[a.key] = true
		e := s.exports[a.key]
		switch {
		case e == nil:
			out = append(out, a.key+": allowlisted, but not declared")
		case e.used:
			out = append(out, fmt.Sprintf("%s (%s): allowlisted, but has a non-test caller", a.key, e.file))
		case !s.tests[a.test]:
			out = append(out, fmt.Sprintf("%s: allowlisted for %s, which is not a test", a.key, a.test))
		case a.reason == "":
			out = append(out, a.key+": allowlisted with no reason")
		}
	}
	for key, e := range s.exports {
		if e.used || listed[key] {
			continue
		}
		how := "used by no file"
		if e.test {
			how = "used by tests only"
		}
		out = append(out, fmt.Sprintf("%s (%s): exported, but %s", key, e.file, how))
	}
	sort.Strings(out)
	return out
}

// declNames is the set of package-level names a top-level declaration
// declares, so a declaration's own mentions of itself (recursion, a
// self-referencing type) are not counted as uses.
func declNames(d ast.Decl) map[string]bool {
	names := map[string]bool{}
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			names[d.Name.Name] = true
		}
	case *ast.GenDecl:
		for _, sp := range d.Specs {
			switch sp := sp.(type) {
			case *ast.TypeSpec:
				names[sp.Name.Name] = true
			case *ast.ValueSpec:
				for _, id := range sp.Names {
					names[id.Name] = true
				}
			}
		}
	}
	return names
}

// recvName is the receiver's type name, without pointer or type
// parameters.
func recvName(fl *ast.FieldList) string {
	x := fl.List[0].Type
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// importPath is the import path of the package holding the file at rel:
// the innermost module's path joined with the directory below it.
func importPath(modules map[string]string, rel string) string {
	dir := filepath.ToSlash(filepath.Dir(rel))
	for d := dir; ; d = filepath.ToSlash(filepath.Dir(d)) {
		if mod, ok := modules[d]; ok {
			if d == dir {
				return mod
			}
			if d == "." {
				return mod + "/" + dir
			}
			return mod + strings.TrimPrefix(dir, d)
		}
		if d == "." {
			return dir
		}
	}
}
