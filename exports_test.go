package planck

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The exported-surface ratchet. Every exported package-level name and
// method declared in non-test code under internal/ must be referenced
// by some non-test code in the repository — cmd/, examples/, the root
// package and bench/ included, since the benchmark's pins are uses — or
// be listed, with a reason, in testdata/unused_exports.txt. The list can
// only shrink: a listed name that is now used, or no longer declared,
// fails the test too.
//
// The scan type-checks every package's non-test files (go/types, with
// the standard library read from the toolchain's export data), so a use
// is a resolved identifier, not a matching name. A package-level name is
// used when an identifier outside its declaration resolves to it. A
// method is used when a selector or method expression resolves to it,
// or when its type, or a pointer to it, implements an interface the
// program mentions (named or anonymous, standard library included) that
// declares the method: a value converted to that interface can be called
// through it. The receiver of a method declaration is not a use of its
// type.

const unusedExportsFile = "testdata/unused_exports.txt"

// unusedReasons are the only grounds on which an unreferenced name may
// stay; a listed name's reason starts with one of them.
var unusedReasons = []string{
	"test-only", "bench-pinned", "protocol constant", "unit constant",
	"enum zero value", "interface method",
}

// TestExportedSurfaceRatchet enforces the ratchet above.
func TestExportedSurfaceRatchet(t *testing.T) {
	unused, err := unusedExports(".")
	if err != nil {
		t.Fatal(err)
	}
	checkRatchet(t, unused, unusedExportsFile,
		"is exported but nothing outside tests uses it: use it, unexport it or delete it",
		"is now used or gone")
}

// TestExportedSurfaceRatchetFixture runs the scan over testdata/exports,
// a module whose exports are used, or not, in the ways that matching by
// name gets wrong: an unused method that shares its name with a used
// one, a method reached only through an interface conversion, and a
// type named only by its own receivers.
func TestExportedSurfaceRatchetFixture(t *testing.T) {
	got, err := unusedExports("testdata/exports")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"shapes.Gauge.Config", "shapes.Orphan", "shapes.Orphan.Bump"}
	if !slices.Equal(got, want) {
		t.Errorf("unused exports of the fixture: got %q, want %q", got, want)
	}
}

// checkRatchet fails t on every name in found that the list file does
// not list (why says what is wrong with it), and on every listed name
// not in found (gone says why it no longer belongs).
func checkRatchet(t *testing.T, found []string, file, why, gone string) {
	t.Helper()
	listed, err := readUnusedList(file)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range found {
		if !listed[name] {
			t.Errorf("%s %s (or list it in %s with a reason)", name, why, file)
		}
		delete(listed, name)
	}
	stale := make([]string, 0, len(listed))
	for name := range listed {
		stale = append(stale, name)
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("%s is listed in %s but %s: remove its line", name, file, gone)
	}
}

// readUnusedList parses "name reason…" lines; '#' starts a comment line.
func readUnusedList(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		ok := false
		for _, r := range unusedReasons {
			ok = ok || strings.HasPrefix(strings.TrimSpace(reason), r)
		}
		if !ok {
			return nil, fmt.Errorf("%s:%d: %s: the reason must start with one of %s",
				path, ln, name, strings.Join(unusedReasons, ", "))
		}
		out[name] = true
	}
	return out, sc.Err()
}

// unusedExports returns the exported names declared in non-test code
// under root/internal that no non-test code under root references, as
// "pkg.Name" or "pkg.Type.Method" with pkg relative to internal/.
func unusedExports(root string) ([]string, error) {
	mod, pkgs, err := checkModule(root)
	if err != nil {
		return nil, err
	}

	// Every non-test use, except the receiver of a method declaration.
	used := make(map[types.Object]bool)
	ifaces := make(map[string][]*types.Interface) // method name → interfaces the program uses that declare it
	seen := make(map[types.Type]bool)
	for _, p := range pkgs {
		recv := make(map[*ast.Ident]bool)
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recv[id] = true
						}
						return true
					})
				}
			}
		}
		for id, obj := range p.info.Uses {
			if !recv[id] {
				used[obj] = true
			}
			collectInterfaces(obj.Type(), ifaces, seen)
		}
		for _, obj := range p.info.Defs {
			if obj != nil {
				collectInterfaces(obj.Type(), ifaces, seen)
			}
		}
		for _, tv := range p.info.Types {
			collectInterfaces(tv.Type, ifaces, seen)
		}
	}

	internal := mod + "/internal/"
	var out []string
	for _, p := range pkgs {
		if !strings.HasPrefix(p.path, internal) {
			continue
		}
		short := strings.TrimPrefix(p.path, internal)
		for _, f := range p.files {
			for _, d := range f.Decls {
				var names []*ast.Ident
				switch d := d.(type) {
				case *ast.FuncDecl:
					names = append(names, d.Name)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = append(names, s.Name)
						case *ast.ValueSpec:
							names = append(names, s.Names...)
						}
					}
				}
				for _, id := range names {
					obj := p.info.Defs[id]
					if !id.IsExported() || obj == nil || used[obj] {
						continue
					}
					name := short + "." + id.Name
					if fn, ok := obj.(*types.Func); ok {
						if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
							if satisfies(recv.Type(), fn.Name(), ifaces) {
								continue
							}
							name = short + "." + recvName(d.(*ast.FuncDecl).Recv.List[0].Type) + "." + id.Name
						}
					}
					out = append(out, name)
				}
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// collectInterfaces records every interface with methods that t
// mentions, through pointers, containers, signatures and anonymous
// structs but not through a named type's fields or methods.
func collectInterfaces(t types.Type, ifaces map[string][]*types.Interface, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Named, *types.Alias:
		if it, ok := t.Underlying().(*types.Interface); ok {
			collectInterfaces(it, ifaces, seen)
		}
	case *types.Interface:
		for i := 0; i < u.NumMethods(); i++ {
			m := u.Method(i).Name()
			ifaces[m] = append(ifaces[m], u)
		}
	case *types.Pointer:
		collectInterfaces(u.Elem(), ifaces, seen)
	case *types.Slice:
		collectInterfaces(u.Elem(), ifaces, seen)
	case *types.Array:
		collectInterfaces(u.Elem(), ifaces, seen)
	case *types.Chan:
		collectInterfaces(u.Elem(), ifaces, seen)
	case *types.Map:
		collectInterfaces(u.Key(), ifaces, seen)
		collectInterfaces(u.Elem(), ifaces, seen)
	case *types.Signature:
		collectInterfaces(u.Params(), ifaces, seen)
		collectInterfaces(u.Results(), ifaces, seen)
	case *types.Tuple:
		for i := 0; i < u.Len(); i++ {
			collectInterfaces(u.At(i).Type(), ifaces, seen)
		}
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			collectInterfaces(u.Field(i).Type(), ifaces, seen)
		}
	}
}

// satisfies reports whether the receiver type recv, or a pointer to it,
// implements one of the used interfaces that declare method.
func satisfies(recv types.Type, method string, ifaces map[string][]*types.Interface) bool {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, it := range ifaces[method] {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

// checkedPkg is one package type-checked from its non-test files.
type checkedPkg struct {
	path  string // import path
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

// checkModule type-checks the non-test files of every package under
// root (outside testdata and dot directories, nested modules such as
// bench/ included, under the root module's path), applying build
// constraints for the host platform. Imports from outside the module
// (the standard library) are read from the toolchain's export data. It returns the module path and the
// packages in dependency order.
func checkModule(root string) (string, []*checkedPkg, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", nil, err
	}
	mod := modfilePath(gomod)
	if mod == "" {
		return "", nil, fmt.Errorf("%s/go.mod: no module line", root)
	}
	fset := token.NewFileSet()
	sources := make(map[string][]*ast.File) // import path → parsed non-test files
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); path != root && (n == "testdata" || strings.HasPrefix(n, ".")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		ip := mod
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		for _, e := range ents {
			n := e.Name()
			if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
				continue
			}
			if ok, err := build.Default.MatchFile(path, n); err != nil || !ok {
				if err != nil {
					return err
				}
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(path, n), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			sources[ip] = append(sources[ip], f)
		}
		return nil
	})
	if err != nil {
		return "", nil, err
	}
	std, err := stdImporter(fset, sources)
	if err != nil {
		return "", nil, err
	}
	imp := &moduleImporter{fset: fset, sources: sources, done: make(map[string]*checkedPkg), std: std}
	paths := make([]string, 0, len(sources))
	for p := range sources {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := imp.Import(p); err != nil {
			return "", nil, err
		}
	}
	return mod, imp.order, nil
}

// stdImporter returns an importer reading the export data of every
// package the sources import from outside the module. One go list call
// finds it all; the default importer would run go list once a package.
func stdImporter(fset *token.FileSet, sources map[string][]*ast.File) (types.Importer, error) {
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}
	seen := make(map[string]bool)
	for _, files := range sources {
		for _, f := range files {
			for _, im := range f.Imports {
				p, _ := strconv.Unquote(im.Path.Value)
				if _, ok := sources[p]; !ok && !seen[p] && p != "unsafe" {
					seen[p] = true
					args = append(args, p)
				}
			}
		}
	}
	export := make(map[string]string)
	if len(seen) > 0 {
		out, err := exec.Command(filepath.Join(build.Default.GOROOT, "bin", "go"), args...).Output()
		if err != nil {
			return nil, fmt.Errorf("go list -export: %v", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			path, file, _ := strings.Cut(line, "\t")
			export[path] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if export[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(export[path])
	}), nil
}

// moduleImporter type-checks module packages from source on first
// import and defers the rest to the standard-library importer.
type moduleImporter struct {
	fset    *token.FileSet
	sources map[string][]*ast.File
	done    map[string]*checkedPkg
	order   []*checkedPkg
	std     types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	files, ok := m.sources[path]
	if !ok {
		return m.std.Import(path)
	}
	if cp := m.done[path]; cp != nil {
		return cp.pkg, nil
	}
	cp := &checkedPkg{path: path, files: files, info: &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
	}}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, files, cp.info)
	if err != nil {
		return nil, err
	}
	cp.pkg = pkg
	m.done[path] = cp
	m.order = append(m.order, cp)
	return pkg, nil
}

// modfilePath returns the module path a go.mod file declares.
func modfilePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`)
		}
	}
	return ""
}

func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

// The config-knob ratchet. Every exported field of a struct type named
// *Config, *Options or *Policy in non-test code under internal/ must be
// written by some non-test code in the repository — cmd/, examples/,
// the root package and bench/ included — or be listed, with a reason, in
// testdata/unset_knobs.txt. A write in the field's own package counts
// unless it sits in a function named Default* or *Defaults: those fill
// the one value every run would otherwise use. A field that only tests
// or its package's defaults set has one value in every product run: it
// is a constant, and belongs in the code as one. The list only shrinks.
//
// The scan reads the same type-checked packages as the surface scan. A
// write is a composite-literal key, an assignment or ++/-- through a
// selector, or an address taken of a selector (a flag bound to the
// field, say), each resolved to the field it names: x.Window = … writes
// x's Window, not every field of that name.

const unsetKnobsFile = "testdata/unset_knobs.txt"

func TestConfigKnobRatchet(t *testing.T) {
	knobs, unset, err := unsetKnobs(".")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d settable fields, %d never written outside tests and their package's defaults", knobs, len(unset))
	checkRatchet(t, unset, unsetKnobsFile,
		"is a config field no product code sets: make it a constant",
		"is now set or gone")
}

// TestConfigKnobRatchetFixture runs the knob scan over testdata/exports,
// whose knobs are written, or not, in the ways a scan that counts test
// writers and matches fields by name gets wrong: a field only a
// _test.go sets, a field sharing its name with an assigned field of
// another type, and a field set by a non-default constructor in its own
// package beside one only a Default* function fills.
func TestConfigKnobRatchetFixture(t *testing.T) {
	knobs, got, err := unsetKnobs("testdata/exports")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"knobs.GaugeConfig.Window", "knobs.MeterConfig.Burst", "knobs.ProbeConfig.Depth"}
	if knobs != 4 || !slices.Equal(got, want) {
		t.Errorf("fixture: %d knobs, unset %q; want 4 knobs, unset %q", knobs, got, want)
	}
}

// unsetKnobs returns how many exported knob fields non-test code under
// root/internal declares, and those no non-test code writes outside its
// package's Default*/*Defaults functions, as "pkg.Type.Field" with pkg
// relative to internal/.
func unsetKnobs(root string) (int, []string, error) {
	mod, pkgs, err := checkModule(root)
	if err != nil {
		return 0, nil, err
	}

	internal := mod + "/internal/"
	knobs := make(map[*types.Var]string) // field → pkg.Type.Field
	for _, p := range pkgs {
		if !strings.HasPrefix(p.path, internal) {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, s := range gd.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok || !isKnobType(ts.Name.Name) {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					typ := strings.TrimPrefix(p.path, internal) + "." + ts.Name.Name
					for _, fl := range st.Fields.List {
						for _, n := range fl.Names {
							if n.IsExported() {
								knobs[p.info.Defs[n].(*types.Var)] = typ + "." + n.Name
							}
						}
					}
				}
			}
		}
	}

	written := make(map[*types.Var]bool)
	for _, p := range pkgs {
		// write marks the knob field e selects, if it is one and the
		// write does not fill a default of the field's own package.
		write := func(e ast.Expr, fn string) {
			var obj types.Object
			switch e := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				if sel := p.info.Selections[e]; sel != nil {
					obj = sel.Obj()
				}
			case *ast.Ident: // a composite-literal key
				obj = p.info.Uses[e]
			}
			v, ok := obj.(*types.Var)
			if !ok || knobs[v] == "" {
				return
			}
			if v.Pkg() == p.pkg && (strings.HasPrefix(fn, "Default") || strings.HasSuffix(fn, "Defaults")) {
				return
			}
			written[v] = true
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fn := ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					fn = fd.Name.Name
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						if _, ok := p.info.Types[n].Type.Underlying().(*types.Struct); ok {
							for _, e := range n.Elts {
								if kv, ok := e.(*ast.KeyValueExpr); ok {
									write(kv.Key, fn)
								}
							}
						}
					case *ast.AssignStmt:
						for _, l := range n.Lhs {
							write(l, fn)
						}
					case *ast.IncDecStmt:
						write(n.X, fn)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							write(n.X, fn)
						}
					}
					return true
				})
			}
		}
	}

	var unset []string
	for v, name := range knobs {
		if !written[v] {
			unset = append(unset, name)
		}
	}
	sort.Strings(unset)
	return len(knobs), unset, nil
}

// isKnobType reports whether a struct type's name marks it as settings.
func isKnobType(name string) bool {
	return ast.IsExported(name) && (strings.HasSuffix(name, "Config") ||
		strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Policy"))
}
