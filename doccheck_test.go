package protogen_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestPackageDocComments enforces the repo's godoc floor with nothing
// but the standard library (the no-new-deps stand-in for revive's
// package-comments rule, run as a CI step): every package in the module
// — internal/*, cmd/*, examples/*, and the root protogen package — must
// carry a substantive package comment ("Package x ..." for libraries,
// "Command x ..." for binaries) so `go doc` output is self-explanatory.
func TestPackageDocComments(t *testing.T) {
	const minDocLen = 60 // a sentence, not a placeholder
	pkgDirs := map[string][]string{}
	for _, path := range goFiles(t) {
		if !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			pkgDirs[dir] = append(pkgDirs[dir], path)
		}
	}
	if len(pkgDirs) < 15 {
		t.Fatalf("walk found only %d packages — test is miswired", len(pkgDirs))
	}
	fset := token.NewFileSet()
	for dir, files := range pkgDirs {
		var best string
		pkgName := ""
		for _, path := range files {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(fset, path, src, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			pkgName = f.Name.Name
			if f.Doc != nil && len(f.Doc.Text()) > len(best) {
				best = f.Doc.Text()
			}
		}
		switch {
		case best == "":
			t.Errorf("%s: package %s has no package comment in any file", dir, pkgName)
		case len(best) < minDocLen:
			t.Errorf("%s: package comment is a stub (%d chars, want ≥ %d): %q", dir, len(best), minDocLen, best)
		case pkgName == "main" && !strings.HasPrefix(best, "Command "):
			t.Errorf("%s: main-package comment must start with \"Command \": %q", dir, firstLine(best))
		case pkgName != "main" && !strings.HasPrefix(best, "Package "+pkgName):
			t.Errorf("%s: package comment must start with \"Package %s\": %q", dir, pkgName, firstLine(best))
		}
	}
}

// mdRef matches a Markdown file name inside a comment.
var mdRef = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)

// TestDocReferences keeps comments from pointing at documents that do
// not exist: every *.md name in a Go comment (test files included) must
// resolve relative to the file's own directory, the repo root or docs/.
func TestDocReferences(t *testing.T) {
	fset := token.NewFileSet()
	refs := 0
	for _, path := range goFiles(t) {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, name := range mdRef.FindAllString(c.Text, -1) {
					refs++
					if !docExists(filepath.Dir(path), name) {
						t.Errorf("%s: comment references %s, which resolves under neither %s, the repo root nor docs/",
							fset.Position(c.Pos()), name, filepath.Dir(path))
					}
				}
			}
		}
	}
	if refs < 10 {
		t.Fatalf("found only %d doc references — test is miswired", refs)
	}
}

func docExists(dir, name string) bool {
	for _, base := range []string{dir, ".", "docs"} {
		if _, err := os.Stat(filepath.Join(base, name)); err == nil {
			return true
		}
	}
	return false
}

// goFiles lists the module's Go files (tests included), skipping hidden
// directories, testdata and the fuzz corpus.
func goFiles(t *testing.T) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "corpus") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
