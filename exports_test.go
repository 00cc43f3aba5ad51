package datacache_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist holds the exported names under internal/ that no
// non-test file reaches and that stay anyway. Each entry says what it
// backs: a test that compares against it, or a document line.
var exportAllowlist = map[string]string{
	// Reference implementations that tests compare against.
	"online.ReferenceSC":       "the frozen SC that TestDifferentialSC holds the engine to, bit for bit",
	"offline.GraphSingleCopy":  "the Definition-2 shortest walk that TestGraphSingleCopyMatchesDP holds SingleCopyOptimal to",
	"cloudsim.Run":             "EXPERIMENTS' \"Three execution engines agree\": TestSCPolicyMatchesClosedFormExactly, TestDifferentialSC",
	"cloudsim.NewSCPolicy":     "EXPERIMENTS' \"Three execution engines agree\": TestSCPolicyMatchesClosedFormExactly, TestDifferentialSC",
	"cloudsim.MigratePolicy":   "the simulator twin of migrate that TestDifferentialBaselines holds engine.Migrate to",
	"cloudsim.ReplicatePolicy": "the simulator twin of replicate that TestDifferentialBaselines holds engine.Replicate to",
	"sweep.AdversarySearch":    "ROADMAP item 2 extends it; TestAdversarySearchFindsStrongAdversary",
	"service.WithAnomalyRules": "lets tests substitute anomaly rules: TestMetricAnomalyLifecycleHTTP, TestRetirementHammer",
	// Accessors that other packages' tests read.
	"obs.Tracer.SpanCount":          "BenchmarkEngineDecisionSpans checks its traced serves kept spans",
	"tsdb.Store.SeriesKeys":         "internal/service's history and retirement tests list the stored series",
	"recorder.Recording.ServeCount": "cli_e2e_test.go and client/record_test.go count a recording's serves",
	"model.Schedule.CountReplicas":  "internal/online's policy tests count a schedule's replicas",
}

// interfaceMethods are the method names that standard-library interfaces
// call (fmt.Stringer, error, http.Handler, json.Marshaler, sort.Interface,
// slog.Handler, …), so such a method is reached without being selected.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"ServeHTTP": true, "Header": true, "Write": true, "WriteHeader": true, "Flush": true,
	"Read": true, "Close": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true, "Len": true, "Less": true, "Swap": true,
	"Push": true, "Pop": true, "Format": true, "Enabled": true, "Handle": true,
	"WithAttrs": true, "WithGroup": true, "LogValue": true,
}

// exportDecl is one exported top-level name, or one exported method of an
// exported type, declared under internal/. Its key is "pkg.Name" or
// "pkg.Type.Method".
type exportDecl struct {
	key, name string
	method    bool
	pos       token.Position
}

// exportScan gathers every exported declaration under internal/ and every
// reference that non-test code makes. A reference's owners are the
// exported declarations it sits in; none means code that always counts.
type exportScan struct {
	fset    *token.FileSet
	decls   []exportDecl
	uses    map[string][][]string // "pkg.Name" -> owners of each reference
	selects map[string][][]string // selected name -> owners of each selection
}

// TestEveryInternalExportHasACaller fails when an exported name under
// internal/ is reachable only from _test.go files: no non-test file of the
// module or of perfbench/ (which compiles against repository names) names
// it, other than from declarations that are unreached themselves. The root
// package and client are public API and stay out of its scope.
//
// A top-level name is reached when a non-test file selects it through its
// package's import name, or when a non-test file of its own package names
// it outside its own declaration (a type's declaration includes its
// methods). A method is reached when a non-test file selects its name, or
// when it is a standard interface method. The scan is syntactic, so it has
// one blind spot: a method is never flagged while a non-test file selects
// the same name on some other type (one-line getters such as SLO.N,
// Writer.Sync and Incremental.N are out of its reach).
//
// When it fails, wire the name into the command or route whose claim it
// backs, move it into its package's _test.go files, delete it, or add it
// to exportAllowlist with the test or document line it backs.
func TestEveryInternalExportHasACaller(t *testing.T) {
	s := &exportScan{fset: token.NewFileSet(), uses: map[string][][]string{}, selects: map[string][][]string{}}
	type parsed struct {
		internal bool
		f        *ast.File
	}
	var files []parsed
	pkgName := map[string]string{} // import path -> package name
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(s.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		files = append(files, parsed{strings.HasPrefix(dir, "internal/"), f})
		pkgName[strings.TrimSuffix("datacache/"+dir, "/.")] = f.Name.Name
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pf := range files {
		imports := map[string]string{} // import name -> package name
		for _, imp := range pf.f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if name, ok := pkgName[path]; ok {
				local := name
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imports[local] = name
			}
		}
		s.file(pf.f, pf.internal, imports)
	}

	reached := map[string]bool{}
	for key := range exportAllowlist {
		reached[key] = true // an entry keeps what it names reachable
	}
	isReached := func(d exportDecl, except string) bool {
		if d.method && interfaceMethods[d.name] {
			return true
		}
		refs := s.uses[d.key]
		if d.method {
			refs = s.selects[d.name]
		}
		for _, owners := range refs {
			if len(owners) == 0 {
				return true
			}
			for _, o := range owners {
				if o != except && reached[o] {
					return true
				}
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for _, d := range s.decls {
			if !reached[d.key] && isReached(d, "") {
				reached[d.key], changed = true, true
			}
		}
	}

	declared := map[string]bool{}
	var unreached []string
	for _, d := range s.decls {
		declared[d.key] = true
		if _, ok := exportAllowlist[d.key]; ok {
			if isReached(d, d.key) {
				t.Errorf("%s: %s is on exportAllowlist but non-test code reaches it; remove its entry", d.pos, d.key)
			}
			continue
		}
		if !reached[d.key] {
			unreached = append(unreached, d.pos.String()+": "+d.key)
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s is exported but only tests reach it: wire it, move it into a _test.go file, delete it, or allowlist it with the claim it backs", u)
	}
	for key := range exportAllowlist {
		if !declared[key] {
			t.Errorf("exportAllowlist entry %s names no exported declaration under internal/", key)
		}
	}
}

// file records f's exported declarations, when f is under internal/, and
// every reference f makes. imports maps f's import names of module
// packages to their package names.
func (s *exportScan) file(f *ast.File, internal bool, imports map[string]string) {
	pkg := f.Name.Name
	declare := func(key, name string, method bool, pos token.Pos) []string {
		s.decls = append(s.decls, exportDecl{key, name, method, s.fset.Position(pos)})
		return []string{key}
	}
	// refs records the references inside n, made from owners. self is the
	// type whose declaration or methods n belongs to: naming it there is
	// not a use.
	var refs func(n ast.Node, owners []string, self string)
	refs = func(n ast.Node, owners []string, self string) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						s.uses[p+"."+n.Sel.Name] = append(s.uses[p+"."+n.Sel.Name], owners)
						return false
					}
				}
				s.selects[n.Sel.Name] = append(s.selects[n.Sel.Name], owners)
				refs(n.X, owners, self)
				return false
			case *ast.Field:
				refs(n.Type, owners, self) // field and parameter names declare
				return false
			case *ast.Ident:
				if internal && n.IsExported() && n.Name != self {
					s.uses[pkg+"."+n.Name] = append(s.uses[pkg+"."+n.Name], owners)
				}
			}
			return true
		})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			var owners []string
			self := ""
			if d.Recv != nil {
				self = receiverType(d.Recv.List[0].Type)
				if internal && d.Name.IsExported() && ast.IsExported(self) {
					owners = declare(pkg+"."+self+"."+d.Name.Name, d.Name.Name, true, d.Pos())
				}
			} else if internal && d.Name.IsExported() {
				owners = declare(pkg+"."+d.Name.Name, d.Name.Name, false, d.Pos())
			}
			refs(d.Type, owners, self)
			if d.Body != nil {
				refs(d.Body, owners, self)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					var owners []string
					if internal && sp.Name.IsExported() {
						owners = declare(pkg+"."+sp.Name.Name, sp.Name.Name, false, sp.Pos())
					}
					if sp.TypeParams != nil {
						refs(sp.TypeParams, owners, sp.Name.Name)
					}
					refs(sp.Type, owners, sp.Name.Name)
				case *ast.ValueSpec:
					var owners []string
					for _, id := range sp.Names {
						if internal && id.IsExported() {
							owners = append(owners, declare(pkg+"."+id.Name, id.Name, false, id.Pos())...)
						}
					}
					if len(owners) < len(sp.Names) {
						owners = nil // an unexported or blank name keeps the spec reachable
					}
					refs(sp.Type, owners, "")
					for _, v := range sp.Values {
						refs(v, owners, "")
					}
				}
			}
		}
	}
}

// receiverType returns the type name of a method receiver, without its
// pointer or type parameters.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
