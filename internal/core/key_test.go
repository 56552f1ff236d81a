package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"testing"
)

// keySamples builds one value of every statement type, every field set
// to a non-zero value and every expression slot filled (both Expr types
// appear). Each call returns fresh values, so a test may edit them in
// place.
func keySamples() map[string]func() Stmt {
	a, b := Var{Name: "a"}, Lit{Kind: LitString, Value: "b"}
	m := Meta{Idx: 3, Ln: 5, Col: 7}
	return map[string]func() Stmt{
		"Assign": func() Stmt { return &Assign{Meta: m, X: "x", E: a} },
		"BinOp":  func() Stmt { return &BinOp{Meta: m, X: "x", Op: "+", L: a, R: b} },
		"UnOp":   func() Stmt { return &UnOp{Meta: m, X: "x", Op: "!", E: b} },
		"Lookup": func() Stmt { return &Lookup{Meta: m, X: "x", Obj: a, Prop: "p"} },
		"DynLookup": func() Stmt {
			return &DynLookup{Meta: m, X: "x", Obj: a, Prop: b}
		},
		"Update": func() Stmt { return &Update{Meta: m, Obj: a, Prop: "p", Val: b} },
		"DynUpdate": func() Stmt {
			return &DynUpdate{Meta: m, Obj: a, Prop: b, Val: Var{Name: "v"}}
		},
		"NewObj": func() Stmt { return &NewObj{Meta: m, X: "o"} },
		"If": func() Stmt {
			return &If{Meta: m, Cond: a,
				Then: []Stmt{&Assign{Meta: Meta{Idx: 1, Ln: 6}, X: "t", E: a}},
				Else: []Stmt{&Assign{Meta: Meta{Idx: 2, Ln: 8}, X: "e", E: b}}}
		},
		"While": func() Stmt {
			return &While{Meta: m, Cond: a, Body: []Stmt{&Break{Meta: Meta{Ln: 6}}}}
		},
		"ForIn": func() Stmt {
			return &ForIn{Meta: m, Key: "k", Obj: a, Body: []Stmt{&Continue{Meta: Meta{Ln: 6}}}}
		},
		"Call": func() Stmt {
			return &Call{Meta: m, X: "r", Callee: Var{Name: "f"}, CalleeName: "o.f", This: Var{Name: "o"},
				Args: []Expr{a, b, Var{Name: "c"}}}
		},
		"FuncDef": func() Stmt {
			return &FuncDef{Meta: m, Name: "f", Params: []string{"p", "q"},
				Body: []Stmt{&Return{Meta: Meta{Ln: 6}, E: Var{Name: "p"}}, &NewObj{Meta: Meta{Idx: 4}, X: "n"}}}
		},
		"Return":   func() Stmt { return &Return{Meta: m, E: a} },
		"Break":    func() Stmt { return &Break{Meta: m} },
		"Continue": func() Stmt { return &Continue{Meta: m} },
	}
}

func stmtKey(s Stmt) [32]byte {
	return Key(&Program{FileName: "index.js", Body: []Stmt{s}, MaxIndex: 9})
}

var (
	exprType = reflect.TypeOf((*Expr)(nil)).Elem()
	stmtType = reflect.TypeOf((*Stmt)(nil)).Elem()
)

// freshOf returns a value of t that differs from every sample value.
func freshOf(t reflect.Type) reflect.Value {
	switch t {
	case exprType:
		return reflect.ValueOf(Var{Name: "zz"})
	case stmtType:
		return reflect.ValueOf(&Continue{Meta: Meta{Idx: 9}})
	}
	return reflect.ValueOf("zz")
}

// editAt applies the n-th edit of v's edit enumeration (counting *n
// down) and reports whether it applied one. The edits are: every int
// incremented, every string extended, every bool flipped; every
// interface set to nil (or, when nil, to a fresh value), its Var and
// Lit swapped, and its contents edited; every slice extended,
// shortened, its first two elements swapped, and each element edited.
func editAt(v reflect.Value, n *int, name *string, path string) bool {
	hit := func(what string) bool {
		if *n == 0 {
			*name = path + ": " + what
			return true
		}
		*n--
		return false
	}
	switch v.Kind() {
	case reflect.Pointer:
		return editAt(v.Elem(), n, name, path)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if editAt(v.Field(i), n, name, path+"."+v.Type().Field(i).Name) {
				return true
			}
		}
	case reflect.Int:
		if hit("+1") {
			v.SetInt(v.Int() + 1)
			return true
		}
	case reflect.String:
		if hit("extended") {
			v.SetString(v.String() + "x")
			return true
		}
	case reflect.Bool:
		if hit("flipped") {
			v.SetBool(!v.Bool())
			return true
		}
	case reflect.Interface:
		if v.IsNil() {
			if hit("set") {
				v.Set(freshOf(v.Type()))
				return true
			}
			return false
		}
		if hit("nil") {
			v.Set(reflect.Zero(v.Type()))
			return true
		}
		if v.Type() == exprType {
			if hit("Var/Lit swapped") {
				switch e := v.Interface().(type) {
				case Var:
					v.Set(reflect.ValueOf(Lit{Kind: LitString, Value: e.Name}))
				case Lit:
					v.Set(reflect.ValueOf(Var{Name: e.Value}))
				}
				return true
			}
		}
		elem := v.Elem()
		if elem.Kind() == reflect.Pointer {
			return editAt(elem, n, name, path)
		}
		cp := reflect.New(elem.Type()).Elem()
		cp.Set(elem)
		if editAt(cp, n, name, path) {
			v.Set(cp)
			return true
		}
	case reflect.Slice:
		if hit("appended") {
			v.Set(reflect.Append(v, freshOf(v.Type().Elem())))
			return true
		}
		if v.Len() > 0 && hit("last dropped") {
			v.Set(v.Slice(0, v.Len()-1))
			return true
		}
		if v.Len() > 1 && hit("first two swapped") {
			x, y := v.Index(0).Interface(), v.Index(1).Interface()
			v.Index(0).Set(reflect.ValueOf(y))
			v.Index(1).Set(reflect.ValueOf(x))
			return true
		}
		for i := 0; i < v.Len(); i++ {
			if editAt(v.Index(i), n, name, path) {
				return true
			}
		}
	}
	return false
}

// TestKeyCoversEveryField: each edit of each field of each statement
// type — every Meta field, every name, every expression slot and
// every statement list — changes the key.
func TestKeyCoversEveryField(t *testing.T) {
	for typ, mk := range keySamples() {
		base := stmtKey(mk())
		if again := stmtKey(mk()); again != base {
			t.Fatalf("%s: two equal values keyed differently", typ)
		}
		edits := 0
		for i := 0; ; i++ {
			s := mk()
			n, name := i, ""
			if !editAt(reflect.ValueOf(s), &n, &name, typ) {
				break
			}
			edits++
			if stmtKey(s) == base {
				t.Errorf("edit %s leaves the key unchanged", name)
			}
		}
		if edits < 3 {
			t.Fatalf("%s: only %d edits enumerated", typ, edits)
		}
	}
}

// TestKeyDistinguishesShapes pins edits that keep the values but move
// them: a statement between branches or into and out of a body, a
// receiver into the arguments, a string boundary; and the
// program-level fields.
func TestKeyDistinguishesShapes(t *testing.T) {
	s := func() Stmt { return &Assign{Meta: Meta{Ln: 2}, X: "x", E: Var{Name: "y"}} }
	pairs := []struct {
		name string
		a, b []Stmt
	}{
		{"Then vs Else", []Stmt{&If{Cond: Var{Name: "c"}, Then: []Stmt{s()}}},
			[]Stmt{&If{Cond: Var{Name: "c"}, Else: []Stmt{s()}}}},
		{"in body vs after", []Stmt{&While{Cond: Var{Name: "c"}, Body: []Stmt{s()}}},
			[]Stmt{&While{Cond: Var{Name: "c"}}, s()}},
		{"function body vs after", []Stmt{&FuncDef{Name: "f", Body: []Stmt{s()}}},
			[]Stmt{&FuncDef{Name: "f"}, s()}},
		{"This as first argument", []Stmt{&Call{X: "r", CalleeName: "f", Args: []Expr{Var{Name: "o"}}}},
			[]Stmt{&Call{X: "r", CalleeName: "f", This: Var{Name: "o"}}}},
		{"string boundary", []Stmt{&BinOp{X: "ab", Op: "c"}}, []Stmt{&BinOp{X: "a", Op: "bc"}}},
		{"param boundary", []Stmt{&FuncDef{Name: "f", Params: []string{"ab"}}},
			[]Stmt{&FuncDef{Name: "f", Params: []string{"a", "b"}}}},
		{"nil statement vs Break", []Stmt{nil}, []Stmt{&Break{}}},
	}
	for _, p := range pairs {
		if Key(&Program{Body: p.a}) == Key(&Program{Body: p.b}) {
			t.Errorf("%s: same key", p.name)
		}
	}
	body := []Stmt{s()}
	base := Key(&Program{FileName: "a.js", Body: body, MaxIndex: 1})
	if Key(&Program{FileName: "b.js", Body: body, MaxIndex: 1}) == base {
		t.Error("FileName not keyed")
	}
	if Key(&Program{FileName: "a.js", Body: body, MaxIndex: 2}) == base {
		t.Error("MaxIndex not keyed")
	}
}

// TestKeySamplesCoverEveryType: keySamples has one entry per statement
// type declared in core.go (a struct embedding Meta), and the samples'
// expression slots hold every expression type (a type with an
// exprNode method), so a Core type added later cannot silently stay
// out of TestKeyCoversEveryField.
func TestKeySamplesCoverEveryType(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "core.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var stmts, exprs []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				ts, ok := sp.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, fld := range st.Fields.List {
					if id, ok := fld.Type.(*ast.Ident); ok && len(fld.Names) == 0 && id.Name == "Meta" {
						stmts = append(stmts, ts.Name.Name)
					}
				}
			}
		case *ast.FuncDecl:
			if d.Name.Name == "exprNode" && d.Recv != nil {
				if id, ok := d.Recv.List[0].Type.(*ast.Ident); ok {
					exprs = append(exprs, id.Name)
				}
			}
		}
	}
	samples := keySamples()
	var have []string
	for name := range samples {
		have = append(have, name)
	}
	sort.Strings(stmts)
	sort.Strings(have)
	if !reflect.DeepEqual(stmts, have) {
		t.Fatalf("statement types in core.go %v, keySamples %v", stmts, have)
	}
	seen := map[string]bool{}
	for _, mk := range samples {
		Walk([]Stmt{mk()}, func(s Stmt) bool {
			v := reflect.ValueOf(s).Elem()
			for i := 0; i < v.NumField(); i++ {
				if fv := v.Field(i); fv.Type() == exprType && !fv.IsNil() {
					seen[fv.Elem().Type().Name()] = true
				}
			}
			return true
		})
	}
	if len(exprs) == 0 {
		t.Fatal("no expression types found in core.go")
	}
	for _, e := range exprs {
		if !seen[e] {
			t.Errorf("expression type %s appears in no sample", e)
		}
	}
}
