package planck

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The exported-surface ratchet. Every exported package-level name and
// method declared in non-test code under internal/ must be referenced
// by some non-test code in the repository — bench/ included, since the
// benchmark's pins are uses — or be listed, with a reason, in
// testdata/unused_exports.txt. The list can only shrink: a listed name
// that is now used, or no longer declared, fails the test too.
//
// Matching is syntactic (go/parser, no type checking). A package-level
// name counts as used when another file names it through its package's
// import, or a file of its own package names it bare. A method counts
// as used when any selector anywhere has its name, so a common method
// name hides its unused namesakes; the check errs towards passing.

const unusedExportsFile = "testdata/unused_exports.txt"

// unusedReasons are the only grounds on which an unreferenced name may
// stay; a listed name's reason starts with one of them.
var unusedReasons = []string{
	"test-only", "bench-pinned", "protocol constant", "unit constant",
	"enum zero value", "interface method",
}

// TestExportedSurfaceRatchet enforces the ratchet above. Its blind spot
// is the method rule: a method counts as used when any selector in the
// repository has its name, whatever the receiver, so an unused method
// that shares its name with a used one (Config, Window, String) passes
// unseen, and the unused-exports list undercounts such methods.
func TestExportedSurfaceRatchet(t *testing.T) {
	unused, err := unusedExports(".")
	if err != nil {
		t.Fatal(err)
	}
	checkRatchet(t, unused, unusedExportsFile,
		"is exported but nothing outside tests uses it: use it, unexport it or delete it",
		"is now used or gone")
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

// goFile is one parsed source file and its import path.
type goFile struct {
	pkg  string // import path, e.g. planck/internal/core
	file *ast.File
	test bool // a _test.go file
}

// parseGoFiles parses every .go file under root outside testdata and
// dot directories, _test.go files only if tests is set.
func parseGoFiles(root string, tests bool) ([]goFile, error) {
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		test := strings.HasSuffix(path, "_test.go")
		if !strings.HasSuffix(path, ".go") || test && !tests {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		pkg := "planck"
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		files = append(files, goFile{pkg: pkg, file: f, test: test})
		return nil
	})
	return files, err
}

// unusedExports returns the exported names declared under root/internal
// that no non-test file under root references, as "pkg.Name" or
// "pkg.Type.Method" with pkg relative to internal/.
func unusedExports(root string) ([]string, error) {
	files, err := parseGoFiles(root, false)
	if err != nil {
		return nil, err
	}

	const internal = "planck/internal/"
	decls := make(map[string]string) // qualified name → reported name
	methods := make(map[string]string)
	for _, gf := range files {
		if !strings.HasPrefix(gf.pkg, internal) {
			continue
		}
		short := strings.TrimPrefix(gf.pkg, internal)
		for _, d := range gf.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					decls[gf.pkg+"."+d.Name.Name] = short + "." + d.Name.Name
					continue
				}
				methods[short+"."+recvName(d.Recv.List[0].Type)+"."+d.Name.Name] = d.Name.Name
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decls[gf.pkg+"."+s.Name.Name] = short + "." + s.Name.Name
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								decls[gf.pkg+"."+n.Name] = short + "." + n.Name
							}
						}
					}
				}
			}
		}
	}

	used := make(map[string]bool)     // qualified package-level names
	selected := make(map[string]bool) // every selector's name
	for _, gf := range files {
		imports := make(map[string]string)
		for _, im := range gf.file.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		// Declared names are not uses of themselves, and a selector's name
		// is not a bare use in the selecting file's package.
		skip := make(map[*ast.Ident]bool)
		ast.Inspect(gf.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				skip[n.Name] = true
			case *ast.TypeSpec:
				skip[n.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				selected[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						used[p+"."+n.Sel.Name] = true
					}
				}
			case *ast.Ident:
				if !skip[n] {
					used[gf.pkg+"."+n.Name] = true
				}
			}
			return true
		})
	}

	var out []string
	for q, name := range decls {
		if !used[q] {
			out = append(out, name)
		}
	}
	for name, bare := range methods {
		if !selected[bare] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
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
// written somewhere other than its own package's non-test files — in a
// test, bench/, cmd/, examples/ or another internal package — or be
// listed, with a reason, in testdata/unset_knobs.txt. A field only its
// own package's defaults ever fill has one value in every run: it is a
// constant, and belongs in the code as one. The list only shrinks.
//
// A write is a composite-literal key of the field's type, the type
// resolved through the file's imports, or an assignment or ++/-- to a
// selector with the field's name. The second rule matches by name
// alone: x.Window = … writes every knob named Window, whatever x is,
// so a field that shares its name with an assigned field of another
// type (packet.TCP's Window, say) passes unchecked. There the check
// errs towards passing. It errs the other way on a literal whose type
// is elided, as in []T{{…}}: none sets a knob today.

const unsetKnobsFile = "testdata/unset_knobs.txt"

func TestConfigKnobRatchet(t *testing.T) {
	knobs, unset, err := unsetKnobs(".")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d settable fields, %d never written outside their package's defaults", knobs, len(unset))
	checkRatchet(t, unset, unsetKnobsFile,
		"is a config field nothing outside its package sets: make it a constant",
		"is now set or gone")
}

// unsetKnobs returns how many exported knob fields non-test code under
// root/internal declares, and those never written outside their own
// package's non-test files, as "pkg.Type.Field" with pkg relative to
// internal/.
func unsetKnobs(root string) (int, []string, error) {
	files, err := parseGoFiles(root, true)
	if err != nil {
		return 0, nil, err
	}

	const internal = "planck/internal/"
	fields := make(map[string][]string) // pkg.Type → exported field names
	for _, sf := range files {
		if sf.test || !strings.HasPrefix(sf.pkg, internal) {
			continue
		}
		for _, d := range sf.file.Decls {
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
				typ := sf.pkg + "." + ts.Name.Name
				for _, fl := range st.Fields.List {
					for _, n := range fl.Names {
						if n.IsExported() {
							fields[typ] = append(fields[typ], n.Name)
						}
					}
				}
			}
		}
	}

	// writers[Field] holds who assigns to a selector of that name: a
	// non-test file's package path, or "" for a test file.
	written := make(map[string]bool) // pkg.Type.Field
	writers := make(map[string]map[string]bool)
	for _, sf := range files {
		imports := make(map[string]string)
		for _, im := range sf.file.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		writer := sf.pkg
		if sf.test {
			writer = ""
		}
		// knobOf names the knob type a type expression denotes, or "".
		knobOf := func(e ast.Expr) string {
			if s, ok := e.(*ast.StarExpr); ok {
				e = s.X
			}
			typ := ""
			switch e := e.(type) {
			case *ast.Ident:
				typ = sf.pkg + "." + e.Name
			case *ast.SelectorExpr:
				if x, ok := e.X.(*ast.Ident); ok && imports[x.Name] != "" {
					typ = imports[x.Name] + "." + e.Sel.Name
				}
			}
			if fields[typ] == nil {
				return ""
			}
			return typ
		}
		assign := func(e ast.Expr) {
			if s, ok := e.(*ast.SelectorExpr); ok {
				if writers[s.Sel.Name] == nil {
					writers[s.Sel.Name] = make(map[string]bool)
				}
				writers[s.Sel.Name][writer] = true
			}
		}
		ast.Inspect(sf.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				typ := knobOf(n.Type)
				if typ == "" || typ[:strings.LastIndex(typ, ".")] == writer {
					return true
				}
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok {
							written[typ+"."+k.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, l := range n.Lhs {
						assign(l)
					}
				}
			case *ast.IncDecStmt:
				assign(n.X)
			}
			return true
		})
	}

	knobs := 0
	var unset []string
	for typ, names := range fields {
		pkg := typ[:strings.LastIndex(typ, ".")]
		for _, name := range names {
			knobs++
			w := written[typ+"."+name]
			for by := range writers[name] {
				w = w || by != pkg
			}
			if !w {
				unset = append(unset, strings.TrimPrefix(typ, internal)+"."+name)
			}
		}
	}
	sort.Strings(unset)
	return knobs, unset, nil
}

// isKnobType reports whether a struct type's name marks it as settings.
func isKnobType(name string) bool {
	return ast.IsExported(name) && (strings.HasSuffix(name, "Config") ||
		strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Policy"))
}
