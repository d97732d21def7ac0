package skipwebs

import (
	"fmt"
	"testing"
)

// drainable is one structure under TestInsertAfterDrain: its point
// updates, membership probe, size and consistency check over items of
// type T.
type drainable[T any] struct {
	insert, remove func(x T, origin HostID) (int, error)
	contains       func(x T, origin HostID) (bool, int, error)
	size           func() int
	check          func() error
	// drained, when set, checks the reads of the empty structure.
	drained func() error
}

// drainRefill deletes every one of built (the items the structure was
// built over), then inserts fresh and built[0] again: a structure drained
// to empty must take its next insert and answer for it.
func drainRefill[T any](t *testing.T, d drainable[T], built []T, fresh T) {
	t.Helper()
	for i, x := range built {
		if _, err := d.remove(x, HostID(i)); err != nil {
			t.Fatalf("delete %v: %v", x, err)
		}
	}
	if n := d.size(); n != 0 {
		t.Fatalf("drained structure holds %d items", n)
	}
	if ok, _, err := d.contains(built[0], 0); err != nil || ok {
		t.Fatalf("Contains(%v) on the drained structure = %v, %v", built[0], ok, err)
	}
	if d.drained != nil {
		if err := d.drained(); err != nil {
			t.Fatal(err)
		}
	}
	for i, x := range []T{fresh, built[0]} {
		if _, err := d.insert(x, HostID(i+1)); err != nil {
			t.Fatalf("insert %v into the drained structure: %v", x, err)
		}
		if ok, _, err := d.contains(x, 0); err != nil || !ok {
			t.Fatalf("Contains(%v) after the insert = %v, %v", x, ok, err)
		}
	}
	if n := d.size(); n != 2 {
		t.Fatalf("refilled structure holds %d items, want 2", n)
	}
	if err := d.check(); err != nil {
		t.Fatal(err)
	}
}

// TestInsertAfterDrain drains each updatable structure to empty and
// inserts again, unstriped and over four write stripes. A drained
// quadtree has no root cell, so neither a query nor the first insert has
// a range to route through: core.Web charges no descent, and Locate
// reports the universal cell.
func TestInsertAfterDrain(t *testing.T) {
	keys := []uint64{10, 20, 30}
	strs := []string{"ant", "bee", "cat"}
	pts := []Point{{1, 2}, {3, 4}, {5, 6}}
	for _, stripes := range []int{0, 4} {
		opts := Options{Seed: 7, WriteStripes: stripes}
		t.Run(fmt.Sprintf("OneDim/stripes=%d", stripes), func(t *testing.T) {
			w, err := NewOneDim(NewCluster(8), keys, opts)
			if err != nil {
				t.Fatal(err)
			}
			drainRefill(t, drainable[uint64]{w.Insert, w.Delete, w.Contains, w.Len, w.CheckConsistent, nil}, keys, 40)
		})
		t.Run(fmt.Sprintf("Blocked/stripes=%d", stripes), func(t *testing.T) {
			w, err := NewBlocked(NewCluster(8), keys, opts)
			if err != nil {
				t.Fatal(err)
			}
			drainRefill(t, drainable[uint64]{w.Insert, w.Delete, w.Contains, w.Len, w.CheckConsistent, nil}, keys, 40)
		})
		t.Run(fmt.Sprintf("Bucketed/stripes=%d", stripes), func(t *testing.T) {
			w, err := NewBucketed(NewCluster(8), keys, opts)
			if err != nil {
				t.Fatal(err)
			}
			drainRefill(t, drainable[uint64]{w.Insert, w.Delete, w.Contains, w.Len, w.CheckConsistent, nil}, keys, 40)
		})
		t.Run(fmt.Sprintf("Points/stripes=%d", stripes), func(t *testing.T) {
			w, err := NewPoints(NewCluster(8), 2, pts, opts)
			if err != nil {
				t.Fatal(err)
			}
			universal := func() error {
				loc, err := w.Locate(Point{7, 8}, 0)
				if err != nil || loc.Leaf || loc.CellBits != 0 || loc.Hops != 0 {
					return fmt.Errorf("Locate on the drained structure = %+v, %v; want the universal cell at no cost", loc, err)
				}
				return nil
			}
			drainRefill(t, drainable[Point]{w.Insert, w.Delete, w.Contains, w.Len, w.CheckConsistent, universal}, pts, Point{7, 8})
		})
		t.Run(fmt.Sprintf("Points/empty/stripes=%d", stripes), func(t *testing.T) {
			w, err := NewPoints(NewCluster(8), 2, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range pts {
				if _, err := w.Insert(p, HostID(i)); err != nil {
					t.Fatalf("insert %v into a structure built empty: %v", p, err)
				}
			}
			drainRefill(t, drainable[Point]{w.Insert, w.Delete, w.Contains, w.Len, w.CheckConsistent, nil}, pts, Point{7, 8})
		})
		t.Run(fmt.Sprintf("Strings/stripes=%d", stripes), func(t *testing.T) {
			w, err := NewStrings(NewCluster(8), strs, opts)
			if err != nil {
				t.Fatal(err)
			}
			drainRefill(t, drainable[string]{w.Insert, w.Delete, w.Contains, w.Len, w.CheckConsistent, nil}, strs, "dog")
		})
	}
}
