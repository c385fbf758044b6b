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

func TestExportedSurfaceRatchet(t *testing.T) {
	unused, err := unusedExports(".")
	if err != nil {
		t.Fatal(err)
	}
	listed, err := readUnusedList(unusedExportsFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range unused {
		if !listed[name] {
			t.Errorf("%s is exported but nothing outside tests uses it: use it, unexport it or delete it (or list it in %s with a reason)", name, unusedExportsFile)
		}
		delete(listed, name)
	}
	stale := make([]string, 0, len(listed))
	for name := range listed {
		stale = append(stale, name)
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("%s is listed in %s but is now used or gone: remove its line", name, unusedExportsFile)
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

// goFile is one parsed non-test source file and its import path.
type goFile struct {
	pkg  string // import path, e.g. planck/internal/core
	file *ast.File
}

// unusedExports returns the exported names declared under root/internal
// that no non-test file under root references, as "pkg.Name" or
// "pkg.Type.Method" with pkg relative to internal/.
func unusedExports(root string) ([]string, error) {
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
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
		files = append(files, goFile{pkg: pkg, file: f})
		return nil
	})
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
