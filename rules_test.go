package affinity_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// uncalledOK lists the exported names under internal/ that no non-test
// Go references, each with the reason it stays. The facade has none.
var uncalledOK = map[string]string{
	"calib.MeasureSend":    "provenance: it regenerates core.SendCalibration's constants (internal/core/exectime.go, experiment E17)",
	"calib.MeasureTCP":     "provenance: it regenerates core.TCPCalibration's constants (internal/core/exectime.go, experiment E21)",
	"sim.WithHashIdentity": "a test hook that tests in both internal/sim and internal/live use; deliberately not a Params field",
}

// TestRepositoryRules enforces the repository's structural rules:
//   - every internal package is imported by the facade or a command;
//   - DESIGN.md §3 names every package of the module;
//   - every exported function of the facade is called from non-test Go
//     under cmd/, examples/ or bench/, or from a godoc example;
//   - every exported top-level func, method, const and var under
//     internal/ is referenced by non-test Go in the module or in bench/,
//     a method also counting as called when an interface the program
//     uses (named or anonymous, the standard library's included) reaches
//     it. A name that stays without a caller is listed in uncalledOK.
//
// It loads the module and the nested bench/ module with go list and
// type-checks them from source with go/types; the standard library is
// checked from source too, declarations only.
func TestRepositoryRules(t *testing.T) {
	prog := loadProgram(t)

	t.Run("NoOrphanPackage", func(t *testing.T) {
		reach := map[string]bool{}
		for _, p := range prog.module {
			if p.ImportPath == "affinity" || strings.HasPrefix(p.ImportPath, "affinity/cmd/") {
				reach[p.ImportPath] = true
				for _, d := range p.Deps {
					reach[d] = true
				}
			}
		}
		var orphans []string
		for _, p := range prog.module {
			if strings.HasPrefix(p.ImportPath, "affinity/internal/") && !reach[p.ImportPath] {
				orphans = append(orphans, p.ImportPath)
			}
		}
		if len(orphans) > 0 {
			t.Errorf("internal packages neither the facade nor a command imports: %s", strings.Join(orphans, " "))
		}
	})

	t.Run("DesignNamesEveryPackage", func(t *testing.T) {
		design, err := os.ReadFile("DESIGN.md")
		if err != nil {
			t.Fatal(err)
		}
		_, inventory, ok := strings.Cut(string(design), "\n## 3.")
		if !ok {
			t.Fatal("DESIGN.md has no section 3")
		}
		inventory, _, _ = strings.Cut(inventory, "\n## ")
		var missing []string
		for _, p := range prog.module {
			rel := strings.TrimPrefix(p.ImportPath, "affinity/")
			if !strings.Contains(inventory, "`"+rel+"`") {
				missing = append(missing, rel)
			}
		}
		if len(missing) > 0 {
			t.Errorf("packages missing from DESIGN.md §3: %s", strings.Join(missing, " "))
		}
	})

	t.Run("FacadeFuncsCalled", func(t *testing.T) {
		examples, err := facadeSelectors("example_test.go")
		if err != nil {
			t.Fatal(err)
		}
		facade := prog.checked["affinity"]
		var uncalled []string
		for _, f := range facade.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || !fd.Name.IsExported() {
					continue
				}
				if !prog.usedElsewhere[facade.info.Defs[fd.Name]] && !examples[fd.Name.Name] {
					uncalled = append(uncalled, fd.Name.Name)
				}
			}
		}
		if len(uncalled) > 0 {
			t.Errorf("facade functions no command, example or benchmark calls: %s", strings.Join(uncalled, " "))
		}
	})

	t.Run("InternalExportsCalled", func(t *testing.T) {
		seen := map[string]bool{}
		var uncalled []string
		for _, p := range prog.module {
			if !strings.HasPrefix(p.ImportPath, "affinity/internal/") {
				continue
			}
			cp := prog.checked[p.ImportPath]
			for _, obj := range exportedDecls(cp) {
				if prog.used[obj] || prog.reached[obj] {
					continue
				}
				name := qualifiedName(obj)
				if _, ok := uncalledOK[name]; ok {
					seen[name] = true
					continue
				}
				uncalled = append(uncalled, fmt.Sprintf("%s: %s", prog.position(obj), name))
			}
		}
		if len(uncalled) > 0 {
			t.Errorf("exported names under internal/ that no non-test Go in the module or bench/ references "+
				"(delete each, move it into a _test.go file, or list it in uncalledOK with its reason):\n\t%s",
				strings.Join(uncalled, "\n\t"))
		}
		for name := range uncalledOK {
			if !seen[name] {
				t.Errorf("uncalledOK lists %s, which is no longer an uncalled export", name)
			}
		}
	})
}

// listedPackage is the part of go list's JSON the rules read.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Deps       []string
}

type checkedPackage struct {
	listedPackage
	files []*ast.File
	pkg   *types.Package
	info  *types.Info // nil for the standard library
}

type program struct {
	fset *token.FileSet
	// module is the module's own packages, in go list order.
	module  []listedPackage
	checked map[string]*checkedPackage
	// used holds every object that non-test Go in the module or bench/
	// references outside the object's own declaration; usedElsewhere
	// those referenced from another package than their own.
	used, usedElsewhere map[types.Object]bool
	// reached holds the methods an interface the program uses reaches.
	reached map[types.Object]bool
	// ifaces indexes every interface type the program uses by the names
	// of its methods.
	ifaces    map[string][]*types.Interface
	seenIface map[*types.Interface]bool
}

// loadProgram lists the module and bench/ (standard library included),
// then parses and type-checks every package in go list's order, which
// puts each package after its imports.
func loadProgram(t *testing.T) *program {
	t.Helper()
	root, err := goList(".")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := goList("bench")
	if err != nil {
		t.Fatal(err)
	}
	prog := &program{
		fset:          token.NewFileSet(),
		checked:       map[string]*checkedPackage{},
		used:          map[types.Object]bool{},
		usedElsewhere: map[types.Object]bool{},
		reached:       map[types.Object]bool{},
		ifaces:        map[string][]*types.Interface{},
		seenIface:     map[*types.Interface]bool{},
	}
	for _, p := range root {
		if !p.Standard {
			prog.module = append(prog.module, p)
		}
	}
	prog.addInterface(types.Universe.Lookup("error").Type())
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		if cp := prog.checked[path]; cp != nil {
			return cp.pkg, nil
		}
		return nil, fmt.Errorf("package %s not listed before its importer", path)
	})
	sizes := types.SizesFor("gc", runtime.GOARCH)
	for _, p := range append(root, bench...) {
		if prog.checked[p.ImportPath] != nil {
			continue
		}
		cp := &checkedPackage{listedPackage: p}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(prog.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			cp.files = append(cp.files, f)
		}
		if !p.Standard {
			cp.info = &types.Info{
				Types: map[ast.Expr]types.TypeAndValue{},
				Defs:  map[*ast.Ident]types.Object{},
				Uses:  map[*ast.Ident]types.Object{},
			}
		}
		conf := types.Config{Importer: imp, Sizes: sizes, IgnoreFuncBodies: p.Standard}
		if cp.pkg, err = conf.Check(p.ImportPath, prog.fset, cp.files, cp.info); err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		prog.checked[p.ImportPath] = cp
		prog.record(cp)
	}
	prog.markReached()
	return prog
}

// goList runs go list -deps over the module rooted at dir. CGO_ENABLED=0
// selects the pure-Go files of the standard library, which go/types can
// check without cgo.
func goList(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-json=ImportPath,Dir,GoFiles,Standard,Deps", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	out, err := cmd.Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, ee.Stderr)
		}
		return nil, fmt.Errorf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// record notes the interfaces a checked package declares or uses and,
// outside the standard library, every object its code references.
func (prog *program) record(cp *checkedPackage) {
	if cp.Standard {
		scope := cp.pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				prog.addInterface(tn.Type())
			}
		}
		return
	}
	for _, tv := range cp.info.Types {
		prog.addInterface(tv.Type)
	}
	for _, f := range cp.files {
		for _, d := range f.Decls {
			var self types.Object
			if fd, ok := d.(*ast.FuncDecl); ok {
				self = cp.info.Defs[fd.Name]
			}
			ast.Inspect(d, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := cp.info.Uses[id]
				if fn, ok := obj.(*types.Func); ok {
					obj = fn.Origin()
				}
				if obj == nil || obj == self {
					return true
				}
				prog.used[obj] = true
				if obj.Pkg() != cp.pkg {
					prog.usedElsewhere[obj] = true
				}
				return true
			})
		}
	}
}

// addInterface indexes typ by its methods' names if it is an interface
// not indexed yet.
func (prog *program) addInterface(typ types.Type) {
	iface, ok := typ.Underlying().(*types.Interface)
	if !ok || prog.seenIface[iface] {
		return
	}
	prog.seenIface[iface] = true
	for i := 0; i < iface.NumMethods(); i++ {
		name := iface.Method(i).Name()
		prog.ifaces[name] = append(prog.ifaces[name], iface)
	}
}

// markReached marks every method that an interface the program uses
// reaches on a type the module or bench/ declares: a pointer to the type
// implements an interface holding a method of that name. The method may
// be promoted from an embedded type.
func (prog *program) markReached() {
	for _, cp := range prog.checked {
		if cp.Standard {
			continue
		}
		for _, obj := range cp.info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			methods := types.NewMethodSet(ptr)
			for i := 0; i < methods.Len(); i++ {
				m := methods.At(i).Obj()
				for _, iface := range prog.ifaces[m.Name()] {
					if types.Implements(ptr, iface) {
						prog.reached[m] = true
						break
					}
				}
			}
		}
	}
}

func (prog *program) position(obj types.Object) string {
	pos := prog.fset.Position(obj.Pos())
	wd, _ := os.Getwd()
	if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
		pos.Filename = rel
	}
	return pos.Filename + ":" + strconv.Itoa(pos.Line)
}

// exportedDecls returns the package's exported top-level funcs, methods,
// consts and vars, in source order.
func exportedDecls(cp *checkedPackage) []types.Object {
	var objs []types.Object
	for _, f := range cp.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() {
					objs = append(objs, cp.info.Defs[d.Name])
				}
			case *ast.GenDecl:
				if d.Tok != token.CONST && d.Tok != token.VAR {
					continue
				}
				for _, spec := range d.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						if id.IsExported() {
							objs = append(objs, cp.info.Defs[id])
						}
					}
				}
			}
		}
	}
	return objs
}

// qualifiedName spells obj as pkg.Name, or pkg.Type.Method for a method.
func qualifiedName(obj types.Object) string {
	name := obj.Pkg().Name() + "."
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			typ := recv.Type()
			if ptr, ok := typ.(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			name += typ.(*types.Named).Obj().Name() + "."
		}
	}
	return name + obj.Name()
}

// facadeSelectors returns the names a Go file selects from its import of
// the facade, as affinity.<Name>.
func facadeSelectors(path string) (map[string]bool, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	local := ""
	for _, imp := range f.Imports {
		if imp.Path.Value == `"affinity"` {
			local = "affinity"
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
				names[sel.Sel.Name] = true
			}
		}
		return true
	})
	return names, nil
}
