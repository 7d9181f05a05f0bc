package batcher_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docsChecked are the documents whose repository paths must exist.
var docsChecked = []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

// codeSpan matches one backticked span on a line.
var codeSpan = regexp.MustCompile("`([^`\n]+)`")

// docPathPrefixes are the roots a backticked token must start with to
// be read as a repository path.
var docPathPrefixes = []string{"internal/", "cmd/", "examples/", ".github/"}

// TestDocsNameExistingPaths checks that every backticked token in the
// docs that starts with a repository root names a path that exists. A
// token may carry arguments after a space (`cmd/batcherlab fig5`), a
// glob (`internal/ds/*`), a line suffix (`x.go:12`) or a Go symbol
// after the package (`internal/sched.Runtime`), which resolves to the
// package directory.
func TestDocsNameExistingPaths(t *testing.T) {
	for _, doc := range docsChecked {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(body), "\n") {
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				if tok := docPath(m[1]); tok != "" && !pathExists(tok) {
					t.Errorf("%s:%d: `%s` names no existing path", doc, i+1, m[1])
				}
			}
		}
	}
}

// docPath returns the path part of a backticked token, or "" when the
// token is not a repository path.
func docPath(tok string) string {
	for _, p := range docPathPrefixes {
		if strings.HasPrefix(tok, p) {
			tok, _, _ = strings.Cut(tok, " ")
			tok, _, _ = strings.Cut(tok, ":")
			return tok
		}
	}
	return ""
}

// pathExists resolves p as a file, directory or glob, and failing that
// as a package directory followed by a .Symbol suffix.
func pathExists(p string) bool {
	if m, _ := filepath.Glob(p); len(m) > 0 {
		return true
	}
	dir, base := filepath.Split(strings.TrimSuffix(p, "/"))
	pkg, _, hasSym := strings.Cut(base, ".")
	if !hasSym {
		return false
	}
	st, err := os.Stat(filepath.Join(dir, pkg))
	return err == nil && st.IsDir()
}

// schedToken matches a backticked token that names the scheduler's API:
// `sched.X`, `sched.X.Y`, `Runtime.X` or `SetX`, optionally followed by
// a call's parentheses.
var schedToken = regexp.MustCompile(`^(?:sched\.([A-Z]\w*)(?:\.([A-Z]\w*))?|Runtime\.([A-Z]\w*)|(Set[A-Z]\w*))(?:\(.*\))?$`)

// TestDocsNameSchedIdentifiers checks that every backticked token in the
// docs that names an exported identifier of internal/sched — a
// package-level name, a type's method or field, or a SetX hook —
// names one that exists.
func TestDocsNameSchedIdentifiers(t *testing.T) {
	top, members := schedExports(t)
	for _, doc := range docsChecked {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(body), "\n") {
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				g := schedToken.FindStringSubmatch(m[1])
				var ok bool
				switch {
				case g == nil:
					continue
				case g[2] != "":
					ok = members[g[1]][g[2]]
				case g[1] != "":
					ok = top[g[1]]
				case g[3] != "":
					ok = members["Runtime"][g[3]]
				default:
					ok = top[g[4]] || members["*"][g[4]]
				}
				if !ok {
					t.Errorf("%s:%d: `%s` names no exported identifier of internal/sched", doc, i+1, m[1])
				}
			}
		}
	}
}

// schedExports parses internal/sched's non-test files and returns its
// exported package-level names and, per type, its exported methods and
// fields; members["*"] holds every exported method name.
func schedExports(t *testing.T) (top map[string]bool, members map[string]map[string]bool) {
	t.Helper()
	files, err := filepath.Glob("internal/sched/*.go")
	if err != nil {
		t.Fatal(err)
	}
	top = map[string]bool{}
	members = map[string]map[string]bool{"*": {}}
	member := func(typ, name string) {
		if members[typ] == nil {
			members[typ] = map[string]bool{}
		}
		members[typ][name] = true
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					top[d.Name.Name] = true
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					member(id.Name, d.Name.Name)
				}
				member("*", d.Name.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						top[sp.Name.Name] = sp.Name.IsExported()
						st, ok := sp.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, fld := range st.Fields.List {
							for _, n := range fld.Names {
								if n.IsExported() {
									member(sp.Name.Name, n.Name)
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							top[n.Name] = n.IsExported()
						}
					}
				}
			}
		}
	}
	return top, members
}
