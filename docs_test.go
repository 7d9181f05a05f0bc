package batcher_test

import (
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
