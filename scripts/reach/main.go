// Command reach lists the package-level declarations that no program
// reaches: every function, method, type, var and const of a non-main
// package that cannot be reached from the main packages under the root
// directories (default: cmd examples bench). Test files are not read, so
// a declaration only its own tests use is reported. It is a check.sh step
// and exits 1 when the list is not empty.
//
//	go run ./scripts/reach [root-dir ...]
//
// Methods are matched conservatively, by name: once reached code selects a
// method M of any type, M of every reached type counts as reached (this
// covers calls through interfaces and embedding without modelling either);
// so does any method named like one of a standard-library interface
// (String, Error, Len, Write, ...), which the library may call. The list
// can therefore miss a dead method; it never names a live one.
//
// A declaration a test of reachable code needs (a reference
// implementation, a fault probe) is exempted by a line
//
//	//reach:keep <reason naming the test>
//
// in its doc comment. Kept declarations are listed on every run and count
// as roots for what they call.
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
	fmt.Printf("reach: %d unreached (%d lines), %d kept by //reach:keep\n",
		len(res.unreached), res.lines, len(res.kept))
	if len(res.unreached) > 0 {
		os.Exit(1)
	}
}

// A decl is one package-level declaration: a function, a method, or one
// spec of a type, var or const declaration (all of the spec's names).
type decl struct {
	node    ast.Node
	name    string       // "pkg.Name" or "pkg.Type.Method"
	method  string       // bare method name, "" for anything else
	recv    types.Object // a method's receiver type
	pos     token.Position
	lines   int
	keep    string // reason of a //reach:keep directive
	checked bool   // in a non-main package: reported when unreached
	root    bool   // main, init, a blank var, or kept: where the walk starts
	reached bool
}

type result struct {
	unreached, kept []string
	lines           int // source lines of the unreached declarations
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

// analyze loads every package of the modules under dir, takes the main
// packages under the root directories as entry points, and reports the
// declarations of the other packages that nothing reaches.
func analyze(dir string, roots []string) (*result, error) {
	build.Default.CgoEnabled = false // the source importer then needs no cgo tool
	l := &loader{
		fset:  token.NewFileSet(),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		files: map[*types.Package][]*ast.File{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
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

	// visit marks d and everything it names; called holds the method names
	// reached code selects, which then reach the methods of reached types.
	called := map[string]bool{}
	var visit func(d *decl)
	visit = func(d *decl) {
		if d.reached {
			return
		}
		d.reached = true
		ast.Inspect(d.node, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := l.info.Uses[id]
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
				if fn.Type().(*types.Signature).Recv() != nil {
					called[fn.Name()] = true
				}
			}
			if t := byObj[obj]; t != nil {
				visit(t)
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
				(called[d.method] || libCalls[d.method]) {
				visit(d)
				changed = true
			}
		}
	}

	res := &result{}
	for _, d := range decls {
		switch {
		case d.keep != "":
			res.kept = append(res.kept, fmt.Sprintf("%s:%d: %s — %s", d.pos.Filename, d.pos.Line, d.name, d.keep))
		case d.checked && !d.reached:
			res.unreached = append(res.unreached, fmt.Sprintf("%s:%d: %s (%d lines)", d.pos.Filename, d.pos.Line, d.name, d.lines))
			res.lines += d.lines
		}
	}
	slices.Sort(res.unreached)
	slices.Sort(res.kept)
	return res, nil
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
		for _, doc := range docs {
			if doc == nil {
				continue
			}
			for _, c := range doc.List {
				if r, ok := strings.CutPrefix(c.Text, "//reach:keep "); ok && strings.TrimSpace(r) != "" {
					dc.keep, dc.root = strings.TrimSpace(r), true
				}
			}
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
		if pt, ok := t.(*types.Pointer); ok {
			t = pt.Elem()
		}
		dc.recv = t.(*types.Named).Origin().Obj()
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
