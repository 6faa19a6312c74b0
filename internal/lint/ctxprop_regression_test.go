package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCtxPropagationCatchesRegression is the seeded-regression gate the
// ctx-propagation check exists for: if someone reintroduces a
// context.Background() into BuildAndIndexCtx's call chain (here:
// handing shellidx.BuildCtx a fresh root instead of the caller's ctx),
// the check must produce a finding in build.go. The module tree is
// copied to a temp dir, the regression is seeded textually, and the
// full check runs over the patched copy.
func TestCtxPropagationCatchesRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("copies and type-checks the whole module; skipped under -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	copyModule(t, root, tmp)

	buildGo := filepath.Join(tmp, "build.go")
	src, err := os.ReadFile(buildGo)
	if err != nil {
		t.Fatal(err)
	}
	seeded := strings.Replace(string(src),
		"shellidx.BuildCtx(ctx,", "shellidx.BuildCtx(context.Background(),", 1)
	if seeded == string(src) {
		t.Fatalf("seed site not found: build.go no longer calls shellidx.BuildCtx(ctx, ...)")
	}
	if err := os.WriteFile(buildGo, []byte(seeded), 0o644); err != nil {
		t.Fatal(err)
	}

	loader, err := NewLoader(tmp)
	if err != nil {
		t.Fatalf("NewLoader on seeded copy: %v", err)
	}
	pkgs, err := loader.ModulePackages()
	if err != nil {
		t.Fatalf("loading seeded copy: %v", err)
	}
	ctx := &Context{Loader: loader, Pkgs: pkgs}
	diags, err := Run(ctx, []*Check{ctxPropagationCheck()})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, d := range diags {
		if filepath.Base(d.File) == "build.go" && strings.Contains(d.Message, "context.Background()") {
			return
		}
	}
	t.Fatalf("ctx-propagation missed the seeded context.Background() in build.go; findings:\n%s", renderDiags(diags))
}

// copyModule copies the Go module tree at root into dst, skipping VCS
// metadata, hidden directories, and testdata (fixtures are irrelevant
// to the seeded check and some deliberately fail to type-check as part
// of a real package load).
func copyModule(t *testing.T, root, dst string) {
	t.Helper()
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if rel != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if rel == "." {
				return nil
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !strings.HasSuffix(d.Name(), ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying module tree: %v", err)
	}
}
