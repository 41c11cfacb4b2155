// Package wiretest holds the checks the wire and snapshot tests share
// to keep every serialized field exercised and every format change
// versioned. Only tests import it.
package wiretest

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// Coverage records, over the sample values it is shown, which exported
// struct fields were ever non-zero and which pairs of same-typed sibling
// fields ever differed. A field zero in every sample is one no round
// trip exercises: an encoder that drops it or a decoder that never sets
// it passes unseen. Two sibling fields equal in every sample hide a
// decoder that swaps them. Fields are named "pkg.Type.Field".
type Coverage struct {
	nonZero map[string]bool // every field reached; true once non-zero
	differ  map[pair]bool   // every sibling pair reached; true once unequal
}

// pair names two same-typed fields of one struct type.
type pair struct{ typ, a, b string }

// Add walks v through pointers, interfaces, slices, arrays and struct
// fields, whatever package declares them.
func (c *Coverage) Add(v any) {
	if c.nonZero == nil {
		c.nonZero, c.differ = map[string]bool{}, map[pair]bool{}
	}
	c.walk(reflect.ValueOf(v))
}

func (c *Coverage) walk(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			c.walk(v.Elem())
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			c.walk(v.Index(i))
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			name := t.String() + "." + f.Name
			c.nonZero[name] = c.nonZero[name] || !v.Field(i).IsZero()
			for j := 0; j < i; j++ {
				if g := t.Field(j); g.IsExported() && g.Type == f.Type {
					p := pair{t.String(), g.Name, f.Name}
					c.differ[p] = c.differ[p] || !reflect.DeepEqual(v.Field(i).Interface(), v.Field(j).Interface())
				}
			}
			c.walk(v.Field(i))
		}
	}
}

// Check fails t for every field that stayed zero and every sibling pair
// that never differed, except pairs and fields named in exempt (field
// name → reason). An exempt field that was reached and set, or never
// reached at all, fails too, so the list cannot go stale.
func (c *Coverage) Check(t testing.TB, exempt map[string]string) {
	t.Helper()
	var bad []string
	for name, set := range c.nonZero {
		_, ok := exempt[name]
		switch {
		case ok && set:
			bad = append(bad, name+" is exempt but set in a sample")
		case !ok && !set:
			bad = append(bad, name+" is zero in every sample")
		}
	}
	for name := range exempt {
		if _, reached := c.nonZero[name]; !reached {
			bad = append(bad, name+" is exempt but no sample reaches it")
		}
	}
	for p, differs := range c.differ {
		_, ea := exempt[p.typ+"."+p.a]
		_, eb := exempt[p.typ+"."+p.b]
		if !differs && !ea && !eb {
			bad = append(bad, fmt.Sprintf("%s.%s and %s are equal in every sample", p.typ, p.a, p.b))
		}
	}
	sort.Strings(bad)
	for _, msg := range bad {
		t.Error(msg)
	}
}

// Diff returns the path of the first difference between a and b, or ""
// if there is none. Unlike reflect.DeepEqual it takes a nil slice and an
// empty one as equal: a decoder allocates lists a capture leaves nil,
// and no encoding tells them apart.
func Diff(a, b any) string {
	return diff(reflect.ValueOf(a), reflect.ValueOf(b), "")
}

func diff(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + " (nil on one side)"
			}
			return ""
		}
		return diff(a.Elem(), b.Elem(), path)
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s (length %d vs %d)", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := diff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := diff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	default:
		if !a.Equal(b) {
			return fmt.Sprintf("%s (%v vs %v)", path, a, b)
		}
	}
	return ""
}

// Frame compares frame with its committed copy dir/<name>.v<N>.bin, N
// being the version byte the frame carries, and returns the committed
// bytes. With update set it writes the file only if it is missing, so a
// frame whose bytes change under an unchanged version byte fails either
// way: a new format needs a new version, and the new version a new file.
func Frame(t testing.TB, dir, name string, frame []byte, update bool) []byte {
	t.Helper()
	if len(frame) < 4 {
		t.Fatalf("%s: %d-byte frame has no version byte", name, len(frame))
	}
	path := filepath.Join(dir, fmt.Sprintf("%s.v%d.bin", name, frame[3]))
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) && update {
		if err := os.WriteFile(path, frame, 0o644); err != nil {
			t.Fatal(err)
		}
		return frame
	}
	if err != nil {
		t.Fatalf("golden frame for version %d missing (a new version writes it with -update): %v", frame[3], err)
	}
	if !bytes.Equal(frame, want) {
		t.Errorf("%s drifted from %s under an unchanged version byte; bump its Version constant (%d vs %d bytes)",
			name, path, len(frame), len(want))
	}
	return want
}
