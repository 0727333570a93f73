// Command reach lists the package-level declarations that no program
// reaches, and the struct fields that nothing it reaches sets: every
// function, method, type, var and const of a non-main package that cannot
// be reached from the main packages under the root directories (default:
// cmd examples bench), and every field of a reached struct type that no
// reached code writes. Test files are not read, so a declaration only its
// own tests use, or an option only tests set, is reported. It is a
// check.sh step and exits 1 when either list is not empty.
//
//	go run ./scripts/reach [root-dir ...]
//
// A method named directly is reached. A method called through an
// interface reaches that method of every reached type implementing the
// interface; a method named like one of a standard-library interface
// (String, Error, Len, Write, ...), which the library may call, is reached
// on every reached type. The list can therefore miss a dead method; it
// never names a live one.
//
// A field is written where reached code names it as a composite-literal
// key (or fills its struct unkeyed), assigns to it or applies ++/-- to it,
// takes its address, slices it when it is an array, or calls a
// pointer-receiver method on it; a field with a struct tag counts as
// written, because reflection fills it.
//
// A declaration or field a test of reachable code needs (a reference
// implementation, a fault probe, a knob a test turns) is exempted by a line
//
//	//reach:keep <reason naming the test>
//
// in its doc comment. The reason must name a Test, Fuzz, Benchmark or
// Example function that exists in a _test.go file of the module, so an
// exemption cannot outlive its test. Kept declarations are listed on every
// run and count as roots for what they call.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"cmd", "examples", "bench"}
	}
	res, err := analyze(".", roots)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}
	for _, k := range res.kept {
		fmt.Printf("kept       %s\n", k)
	}
	for _, u := range res.unreached {
		fmt.Printf("unreached  %s\n", u)
	}
	for _, u := range res.unset {
		fmt.Printf("unset      %s\n", u)
	}
	for _, b := range res.badKeeps {
		fmt.Printf("badkeep    %s\n", b)
	}
	fmt.Printf("reach: %d unreached (%d lines), %d unset fields, %d kept by //reach:keep, %d naming no test\n",
		len(res.unreached), res.lines, len(res.unset), len(res.kept), len(res.badKeeps))
	if len(res.unreached)+len(res.unset)+len(res.badKeeps) > 0 {
		os.Exit(1)
	}
}

// A decl is one package-level declaration: a function, a method, or one
// spec of a type, var or const declaration (all of the spec's names).
type decl struct {
	node    ast.Node
	name    string          // "pkg.Name" or "pkg.Type.Method"
	method  string          // bare method name, "" for anything else
	recv    *types.TypeName // a method's receiver type
	pos     token.Position
	lines   int
	keep    string // reason of a //reach:keep directive
	checked bool   // in a non-main package: reported when unreached
	root    bool   // main, init, a blank var, or kept: where the walk starts
	reached bool
}

type result struct {
	unreached, unset, kept, badKeeps []string
	lines                            int // source lines of the unreached declarations
}

// loader type-checks the packages of the modules under the analyzed
// directory from source, and everything else (the standard library)
// through the source importer.
type loader struct {
	fset  *token.FileSet
	dirs  map[string]string // import path -> directory, for every directory scanned
	pkgs  map[string]*types.Package
	files map[*types.Package][]*ast.File // of every loaded module package
	std   types.Importer
	info  *types.Info
}

// scan records the import path of dir and of every directory below it; a
// go.mod starts a new module.
func (l *loader) scan(dir, path string) error {
	if src, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
		for _, line := range strings.Split(string(src), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
				path = f[1]
			}
		}
	}
	l.dirs[path] = dir
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if n := e.Name(); e.IsDir() && n != "testdata" && n[0] != '.' && n[0] != '_' {
			if err := l.scan(filepath.Join(dir, n), path+"/"+n); err != nil {
				return err
			}
		}
	}
	return nil
}

func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir, ours := l.dirs[path]
	if !ours {
		return l.std.Import(path)
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	l.files[p] = files
	return p, nil
}

// testFuncs returns the names of the Test, Fuzz, Benchmark and Example
// functions declared in the _test.go files of every scanned directory.
func (l *loader) testFuncs() (map[string]bool, error) {
	names := map[string]bool{}
	for _, d := range l.dirs {
		bp, err := build.Default.ImportDir(d, 0)
		if err != nil {
			continue
		}
		for _, name := range append(bp.TestGoFiles, bp.XTestGoFiles...) {
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(d, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, fd := range f.Decls {
				if fd, ok := fd.(*ast.FuncDecl); ok && fd.Recv == nil && testName.MatchString(fd.Name.Name) {
					names[fd.Name.Name] = true
				}
			}
		}
	}
	return names, nil
}

// testName matches a word that names a test, fuzz target, benchmark or
// example.
var testName = regexp.MustCompile(`\b(Test|Fuzz|Benchmark|Example)[A-Z0-9_]\w*`)

// analyze loads every package of the modules under dir, takes the main
// packages under the root directories as entry points, and reports the
// declarations of the other packages that nothing reaches and the fields
// of reached structs that nothing reached writes.
func analyze(dir string, roots []string) (*result, error) {
	build.Default.CgoEnabled = false // the source importer then needs no cgo tool
	l := &loader{
		fset:  token.NewFileSet(),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		files: map[*types.Package][]*ast.File{},
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	if err := l.scan(dir, ""); err != nil {
		return nil, err
	}
	for path, d := range l.dirs {
		bp, err := build.Default.ImportDir(d, 0)
		if err != nil {
			continue // no Go source here
		}
		if bp.Name == "main" {
			// A program is loaded only as an entry point.
			rel, _ := filepath.Rel(dir, d)
			if !slices.ContainsFunc(roots, func(r string) bool {
				return rel == r || strings.HasPrefix(rel, r+string(filepath.Separator))
			}) {
				continue
			}
		}
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}
	tests, err := l.testFuncs()
	if err != nil {
		return nil, err
	}

	// One decl per declaration, found again from any object it declares.
	byObj := map[types.Object]*decl{}
	var decls []*decl
	for p, files := range l.files {
		for _, f := range files {
			for _, d := range f.Decls {
				decls = append(decls, l.declsOf(p, d, byObj)...)
			}
		}
	}

	// Names the standard library may call on any value it is handed.
	libCalls := map[string]bool{"Error": true}
	seen := map[*types.Package]bool{}
	var collect func(p *types.Package)
	collect = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if _, ours := l.files[p]; !ours {
			for _, n := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						for i := 0; i < it.NumMethods(); i++ {
							libCalls[it.Method(i).Name()] = true
						}
					}
				}
			}
		}
		for _, q := range p.Imports() {
			collect(q)
		}
	}
	for p := range l.files {
		collect(p)
	}

	// visit marks d and everything it names. ifaces holds, by method name,
	// the interfaces reached code calls a method through; written, the
	// fields it writes.
	ifaces := map[string][]*types.Interface{}
	written := map[*types.Var]bool{}
	var visit func(d *decl)
	visit = func(d *decl) {
		if d.reached {
			return
		}
		d.reached = true
		ast.Inspect(d.node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				obj := l.info.Uses[n]
				if fn, ok := obj.(*types.Func); ok {
					obj = fn.Origin()
					if r := fn.Type().(*types.Signature).Recv(); r != nil {
						if it, ok := r.Type().Underlying().(*types.Interface); ok {
							ifaces[fn.Name()] = append(ifaces[fn.Name()], it)
						}
					}
				}
				if t := byObj[obj]; t != nil {
					visit(t)
				}
			case *ast.CompositeLit:
				st, ok := deref(l.info.TypeOf(n)).Underlying().(*types.Struct)
				for i := 0; ok && i < len(n.Elts); i++ {
					kv, keyed := n.Elts[i].(*ast.KeyValueExpr)
					if !keyed { // unkeyed: every field
						for i := 0; i < st.NumFields(); i++ {
							written[st.Field(i).Origin()] = true
						}
						break
					}
					if f, ok := l.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						written[f.Origin()] = true
					}
				}
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					l.markWritten(e, written)
				}
			case *ast.IncDecStmt:
				l.markWritten(n.X, written)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					l.markWritten(n.X, written)
				}
			case *ast.SliceExpr:
				if _, ok := l.info.TypeOf(n.X).Underlying().(*types.Array); ok {
					l.markWritten(n.X, written)
				}
			case *ast.SelectorExpr:
				// A pointer-receiver method called on an addressable value
				// takes its address.
				if s := l.info.Selections[n]; s != nil && s.Kind() == types.MethodVal && !isPointer(s.Recv()) &&
					isPointer(s.Obj().Type().(*types.Signature).Recv().Type()) {
					l.markWritten(n.X, written)
				}
			}
			return true
		})
	}
	for _, d := range decls {
		if d.root {
			visit(d)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if !d.reached && d.method != "" && byObj[d.recv] != nil && byObj[d.recv].reached &&
				(libCalls[d.method] || implementsAny(d.recv, ifaces[d.method])) {
				visit(d)
				changed = true
			}
		}
	}

	res := &result{}
	keep := func(pos token.Position, name, reason string) {
		res.kept = append(res.kept, fmt.Sprintf("%s:%d: %s — %s", pos.Filename, pos.Line, name, reason))
		named := testName.FindAllString(reason, -1)
		if len(named) == 0 || slices.ContainsFunc(named, func(n string) bool { return !tests[n] }) {
			res.badKeeps = append(res.badKeeps, fmt.Sprintf("%s:%d: %s — the reason must name only test functions that exist", pos.Filename, pos.Line, name))
		}
	}
	for _, d := range decls {
		switch {
		case d.keep != "":
			keep(d.pos, d.name, d.keep)
		case d.checked && !d.reached:
			res.unreached = append(res.unreached, fmt.Sprintf("%s:%d: %s (%d lines)", d.pos.Filename, d.pos.Line, d.name, d.lines))
			res.lines += d.lines
		}
		ts, ok := d.node.(*ast.TypeSpec)
		if !ok || !d.checked || !d.reached {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, f := range st.Fields.List {
			for _, id := range f.Names {
				pos, name := l.fset.Position(id.Pos()), d.name+"."+id.Name
				switch {
				case keepOf(f.Doc, f.Comment) != "":
					keep(pos, name, keepOf(f.Doc, f.Comment))
				case f.Tag == nil && !written[l.info.Defs[id].(*types.Var)]:
					res.unset = append(res.unset, fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, name))
				}
			}
		}
	}
	slices.Sort(res.unreached)
	slices.Sort(res.unset)
	slices.Sort(res.kept)
	slices.Sort(res.badKeeps)
	return res, nil
}

// markWritten records the field e selects as written, and with it every
// field that holds it by value: writing x.a.b writes x.a too.
func (l *loader) markWritten(e ast.Expr, written map[*types.Var]bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			if _, ok := l.info.TypeOf(x.X).Underlying().(*types.Array); !ok {
				return
			}
			e = x.X
		case *ast.SelectorExpr:
			s := l.info.Selections[x]
			if s == nil || s.Kind() != types.FieldVal {
				return
			}
			written[s.Obj().(*types.Var).Origin()] = true
			if isPointer(s.Recv()) {
				return
			}
			e = x.X
		default:
			return
		}
	}
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

// implementsAny reports whether the type tn names, or a pointer to it,
// implements one of ifaces. A generic type is assumed to.
func implementsAny(tn *types.TypeName, ifaces []*types.Interface) bool {
	t := tn.Type()
	return slices.ContainsFunc(ifaces, func(it *types.Interface) bool {
		return t.(*types.Named).TypeParams().Len() > 0 || types.Implements(t, it) || types.Implements(types.NewPointer(t), it)
	})
}

// keepOf returns the reason of a //reach:keep line in the comments, or "".
func keepOf(docs ...*ast.CommentGroup) string {
	for _, doc := range docs {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			if r, ok := strings.CutPrefix(c.Text, "//reach:keep "); ok && strings.TrimSpace(r) != "" {
				return strings.TrimSpace(r)
			}
		}
	}
	return ""
}

// declsOf turns one top-level declaration into decls and records the
// objects each declares.
func (l *loader) declsOf(p *types.Package, d ast.Decl, byObj map[types.Object]*decl) []*decl {
	mk := func(n ast.Node, names []*ast.Ident, docs ...*ast.CommentGroup) *decl {
		dc := &decl{node: n, pos: l.fset.Position(n.Pos()), checked: p.Name() != "main"}
		dc.lines = l.fset.Position(n.End()).Line - dc.pos.Line + 1
		for _, id := range names {
			if obj := l.info.Defs[id]; obj != nil {
				byObj[obj] = dc
			}
			if id.Name == "_" {
				dc.root = true
			}
		}
		dc.name = p.Name() + "." + names[0].Name
		if dc.keep = keepOf(docs...); dc.keep != "" {
			dc.root = true
		}
		return dc
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		dc := mk(d, []*ast.Ident{d.Name}, d.Doc)
		if d.Recv == nil {
			dc.root = dc.root || d.Name.Name == "init" || (d.Name.Name == "main" && p.Name() == "main")
			return []*decl{dc}
		}
		t := l.info.Defs[d.Name].(*types.Func).Type().(*types.Signature).Recv().Type()
		dc.recv = deref(t).(*types.Named).Origin().Obj()
		dc.method = d.Name.Name
		dc.name = p.Name() + "." + dc.recv.Name() + "." + dc.method
		return []*decl{dc}
	case *ast.GenDecl:
		doc := d.Doc
		if d.Lparen.IsValid() {
			doc = nil // a group's comment is not each member's
		}
		var out []*decl
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				out = append(out, mk(s, []*ast.Ident{s.Name}, s.Doc, doc))
			case *ast.ValueSpec:
				out = append(out, mk(s, s.Names, s.Doc, doc))
			}
		}
		return out
	}
	return nil
}
