// Package surface holds the guard that keeps the internal packages' functions
// and methods, exported or not, down to what the program reaches. It has only
// this test file.
//
// The guard type-checks every non-test file of the module and lists each
// function and method declared under internal/ that nothing reaches; init
// functions are exempt.
// A function or method counts as reached when:
//   - a non-test file anywhere in the module refers to it (cmd, examples,
//     benchmarks and the root package included), other than from inside its
//     own body;
//   - it is a method of a type, or of a type embedded in another, whose
//     method set satisfies an interface that appears in non-test code, named
//     or literal; the match is on the method name and on the signature
//     without parameter names;
//   - it is a method of a type that the root package re-exports (public API);
//   - its name is String, Error, Is, As, Unwrap or Format.
//
// References are resolved with go/types, not by name: a use of one type's
// Close does not keep another type's Close alive.
//
// Anything else must be listed in allowlist.txt as "symbol reason"; a listed
// symbol that is reached, or no longer exists, fails the guard too. Run it
// with
//
//	go test -run 'TestSurfaceGuard' ./internal/surface
package surface

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestSurfaceGuard fails when a function or method under internal/ is reached
// by nothing and is not on allowlist.txt, or when an allowlist
// entry is stale.
func TestSurfaceGuard(t *testing.T) {
	_, unlisted, stale := guard(t, filepath.Join("..", ".."), "allowlist.txt")
	for _, s := range unlisted {
		t.Errorf("%s: reached by no non-test code and not on allowlist.txt; delete it, move it to an export_test.go, or allowlist it with a reason", s)
	}
	for _, s := range stale {
		t.Errorf("%s: stale allowlist.txt entry; the symbol is reached or gone", s)
	}
}

// TestSurfaceGuardFixture runs the guard on a small module whose two
// unreached functions, one exported and one not, are not allowlisted and
// whose allowlist has stale entries; the fixture's other functions are each
// reached by one of the guard's rules.
func TestSurfaceGuardFixture(t *testing.T) {
	dir := filepath.Join("testdata", "fixture")
	unreached, unlisted, stale := guard(t, dir, filepath.Join(dir, "allowlist.txt"))
	if want := []string{"a.Planted", "a.planted"}; !slices.Equal(unlisted, want) {
		t.Errorf("unlisted = %v, want %v (unreached: %v)", unlisted, want, unreached)
	}
	if want := []string{"a.Gone", "a.Greeter.Hello"}; !slices.Equal(stale, want) {
		t.Errorf("stale = %v, want %v", stale, want)
	}
}

// guard scans the module in dir and returns its unreached symbols, those of
// them missing from the allowlist, and the allowlist entries that are not
// unreached, all sorted.
func guard(t *testing.T, dir, allowlist string) (unreached, unlisted, stale []string) {
	t.Helper()
	unreached, err := scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist(allowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range unreached {
		if _, ok := allow[s]; !ok {
			unlisted = append(unlisted, s)
		}
	}
	for s := range allow {
		if !slices.Contains(unreached, s) {
			stale = append(stale, s)
		}
	}
	slices.Sort(stale)
	return unreached, unlisted, stale
}

// readAllowlist reads "symbol reason" lines; blank lines and lines starting
// with # are skipped. An entry without a reason is an error.
func readAllowlist(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n, sym)
		}
		if _, dup := allow[sym]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, sym)
		}
		allow[sym] = reason
	}
	return allow, sc.Err()
}

// exempt names are reached through the standard library (fmt, errors)
// without any interface in the module's code naming them.
var exempt = map[string]bool{"String": true, "Error": true, "Is": true, "As": true, "Unwrap": true, "Format": true}

type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Module     *struct{ Path string }
}

// module is the type-checked non-test code of one module.
type module struct {
	path  string
	pkgs  []*types.Package
	files map[*types.Package][]*ast.File
	info  *types.Info
}

// load lists the module in dir with its dependencies, imports the standard
// library from export data and type-checks the module's non-test files.
func load(dir string) (*module, error) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	fset := token.NewFileSet()
	exports := map[string]string{}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := exports[path]; ok {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	m := &module{
		files: map[*types.Package][]*ast.File{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	// go list -deps prints every package after its dependencies.
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, err
		}
		if lp.Standard || lp.Module == nil {
			exports[lp.ImportPath] = lp.Export
			continue
		}
		m.path = lp.Module.Path
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		conf := types.Config{Importer: imp}
		p, err := conf.Check(lp.ImportPath, fset, files, m.info)
		if err != nil {
			return nil, err
		}
		checked[lp.ImportPath] = p
		m.pkgs = append(m.pkgs, p)
		m.files[p] = files
	}
	return m, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// scan returns the functions and methods declared under the
// module's internal/ directory that no rule reaches, as sorted
// "pkg.Func" or "pkg.Type.Method" names relative to internal/.
func scan(dir string) ([]string, error) {
	m, err := load(dir)
	if err != nil {
		return nil, err
	}
	reached := map[*types.Func]bool{}
	reach := func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			reached[fn.Origin()] = true
		}
	}

	// Rule 1: references from non-test code, outside the symbol's own body.
	ifaces := newIfaceSet()
	for _, p := range m.pkgs {
		for _, f := range m.files[p] {
			for _, decl := range f.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = m.info.Defs[fd.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := m.info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							reach(fn)
						}
					}
					if e, ok := n.(ast.Expr); ok {
						ifaces.add(m.info.Types[e].Type)
					}
					return true
				})
			}
		}
	}

	// Rule 2: methods that satisfy an interface appearing in non-test code.
	// Named interfaces declared in the module count even where no expression
	// has their type.
	var concrete []types.Type
	for _, p := range m.pkgs {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			ifaces.add(tn.Type())
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams() == nil {
				concrete = append(concrete, named)
			}
		}
	}
	concrete = append(concrete, ifaces.instances...)
	for _, t := range concrete {
		if types.IsInterface(t) {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(t))
		if ms.Len() == 0 {
			continue
		}
		for _, iface := range ifaces.list {
			if satisfies(ms, iface) {
				for i := 0; i < iface.NumMethods(); i++ {
					im := iface.Method(i)
					reach(ms.Lookup(im.Pkg(), im.Name()).Obj())
				}
			}
		}
	}

	// Rule 3: methods of the types the root package re-exports.
	for _, p := range m.pkgs {
		if p.Path() != m.path {
			continue
		}
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				ms := types.NewMethodSet(types.NewPointer(tn.Type()))
				for i := 0; i < ms.Len(); i++ {
					reach(ms.At(i).Obj())
				}
			}
		}
	}

	var unreached []string
	prefix := m.path + "/internal/"
	for _, p := range m.pkgs {
		if !strings.HasPrefix(p.Path(), prefix) {
			continue
		}
		rel := strings.TrimPrefix(p.Path(), prefix)
		for _, f := range m.files[p] {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || exempt[fd.Name.Name] {
					continue
				}
				fn := m.info.Defs[fd.Name].(*types.Func)
				if reached[fn] {
					continue
				}
				name := rel + "." + fn.Name()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					name = rel + "." + receiverName(recv.Type()) + "." + fn.Name()
				}
				unreached = append(unreached, name)
			}
		}
	}
	slices.Sort(unreached)
	return unreached, nil
}

func receiverName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Name()
}

// satisfies reports whether the method set ms has every method of iface
// under the same name and an identical signature.
func satisfies(ms *types.MethodSet, iface *types.Interface) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		im := iface.Method(i)
		sel := ms.Lookup(im.Pkg(), im.Name())
		if sel == nil || !types.Identical(sel.Obj().Type(), im.Type()) {
			return false
		}
	}
	return true
}

// ifaceSet collects the non-empty interfaces found in a set of types, walking
// into signatures, composite types and struct fields, and the instantiated
// generic types it passes on the way.
type ifaceSet struct {
	seen      map[types.Type]bool
	list      []*types.Interface
	instances []types.Type
}

func newIfaceSet() *ifaceSet { return &ifaceSet{seen: map[types.Type]bool{}} }

func (s *ifaceSet) add(t types.Type) {
	if t == nil || s.seen[t] {
		return
	}
	s.seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if t.TypeArgs().Len() > 0 {
			s.instances = append(s.instances, t)
			for i := 0; i < t.TypeArgs().Len(); i++ {
				s.add(t.TypeArgs().At(i))
			}
		}
		s.add(t.Underlying())
	case *types.Interface:
		if t.NumMethods() > 0 {
			s.list = append(s.list, t)
		}
		for i := 0; i < t.NumEmbeddeds(); i++ {
			s.add(t.EmbeddedType(i))
		}
	case *types.Signature:
		s.add(t.Params())
		s.add(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			s.add(t.At(i).Type())
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			s.add(t.Field(i).Type())
		}
	case *types.Pointer:
		s.add(t.Elem())
	case *types.Slice:
		s.add(t.Elem())
	case *types.Array:
		s.add(t.Elem())
	case *types.Chan:
		s.add(t.Elem())
	case *types.Map:
		s.add(t.Key())
		s.add(t.Elem())
	case *types.TypeParam:
		s.add(t.Constraint())
	case *types.Union:
		for i := 0; i < t.Len(); i++ {
			s.add(t.Term(i).Type())
		}
	}
}
