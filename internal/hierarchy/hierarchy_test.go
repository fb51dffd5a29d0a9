package hierarchy

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// figure7 builds the paper's Figure 7 example: 1 storage node, 2 I/O nodes,
// 4 client nodes.
func figure7() *Tree {
	return NewLayered(
		LayerSpec{Count: 1, CacheChunks: 100, Label: "SN"},
		LayerSpec{Count: 2, CacheChunks: 100, Label: "IO"},
		LayerSpec{Count: 4, CacheChunks: 100, Label: "CN"},
	)
}

func TestFigure7Shape(t *testing.T) {
	tr := figure7()
	if tr.NumClients() != 4 {
		t.Fatalf("NumClients = %d", tr.NumClients())
	}
	if tr.Height() != 2 {
		t.Fatalf("Height = %d", tr.Height())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Root.Children) != 2 {
		t.Fatalf("root degree = %d", len(tr.Root.Children))
	}
	for _, io := range tr.Root.Children {
		if len(io.Children) != 2 {
			t.Fatalf("I/O node degree = %d", len(io.Children))
		}
	}
}

func TestFigure7Affinity(t *testing.T) {
	tr := figure7()
	// Clients 0,1 share IO0 (level 1); clients 0,2 share only the root.
	c0, c1, c2 := tr.Client(0), tr.Client(1), tr.Client(2)
	if io := AncestorAt(c0, 1); io != AncestorAt(c1, 1) || io.CacheChunks == 0 {
		t.Fatal("clients 0,1 should share an I/O cache")
	}
	if AncestorAt(c0, 1) == AncestorAt(c2, 1) {
		t.Fatal("clients 0,2 should not share an I/O cache")
	}
	if sn := AncestorAt(c0, 0); sn != AncestorAt(c2, 0) || sn.CacheChunks == 0 {
		t.Fatal("all clients share the storage cache")
	}
}

func TestDummyRootInserted(t *testing.T) {
	tr := NewLayered(
		LayerSpec{Count: 2, CacheChunks: 50, Label: "SN"},
		LayerSpec{Count: 4, CacheChunks: 50, Label: "IO"},
		LayerSpec{Count: 8, CacheChunks: 50, Label: "CN"},
	)
	if tr.Root.CacheChunks != 0 {
		t.Fatal("dummy root should be cache-less")
	}
	if len(tr.Root.Children) != 2 {
		t.Fatalf("root degree = %d", len(tr.Root.Children))
	}
	if tr.Height() != 3 {
		t.Fatalf("Height = %d", tr.Height())
	}
	// Clients under different storage nodes share only the dummy root,
	// which holds no cache.
	if AncestorAt(tr.Client(0), 1) == AncestorAt(tr.Client(7), 1) {
		t.Fatal("clients 0 and 7 should sit under different storage nodes")
	}
}

func TestPaperDefaultTopology(t *testing.T) {
	tr := NewLayered(
		LayerSpec{Count: 16, CacheChunks: 1000, Label: "SN"},
		LayerSpec{Count: 32, CacheChunks: 1000, Label: "IO"},
		LayerSpec{Count: 64, CacheChunks: 1000, Label: "CN"},
	)
	if tr.NumClients() != 64 {
		t.Fatalf("NumClients = %d", tr.NumClients())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// 16 storage nodes under dummy root, 2 I/O each, 2 clients per I/O.
	if len(tr.Root.Children) != 16 {
		t.Fatalf("storage nodes = %d", len(tr.Root.Children))
	}
	sn := tr.Root.Children[0]
	if len(sn.Children) != 2 {
		t.Fatalf("I/O per storage = %d", len(sn.Children))
	}
	if len(sn.Children[0].Children) != 2 {
		t.Fatalf("clients per I/O = %d", len(sn.Children[0].Children))
	}
}

func TestLeavesUnderAndPath(t *testing.T) {
	tr := figure7()
	io0 := tr.Root.Children[0]
	if got := tr.NumLeavesUnder(io0); got != 2 || AncestorAt(tr.Client(0), 1) != io0 || AncestorAt(tr.Client(1), 1) != io0 {
		t.Fatalf("NumLeavesUnder(IO0) = %d, want clients 0 and 1", got)
	}
	if all := tr.NumLeavesUnder(tr.Root); all != 4 {
		t.Fatalf("NumLeavesUnder(root) = %d", all)
	}
	path := tr.PathToRoot(3)
	if len(path) != 3 || path[0] != tr.Client(3) || path[2] != tr.Root {
		t.Fatalf("PathToRoot(3) = %v", path)
	}
}

func TestAncestorAtAndLCA(t *testing.T) {
	tr := figure7()
	c0 := tr.Client(0)
	if AncestorAt(c0, 2) != c0 {
		t.Fatal("AncestorAt(leaf level) should be the leaf itself")
	}
	if AncestorAt(c0, 0) != tr.Root {
		t.Fatal("AncestorAt(0) should be the root")
	}
	if AncestorAt(tr.Root, 2) != nil {
		t.Fatal("AncestorAt below a node should be nil")
	}
	if got := AncestorAt(tr.Client(1), 1); got.Label != "IO0" || got != AncestorAt(c0, 1) {
		t.Fatalf("clients 0,1 meet at %s, want IO0", got.Label)
	}
	if AncestorAt(tr.Client(3), 1) == AncestorAt(c0, 1) {
		t.Fatal("clients 0,3 should meet only at the root")
	}
}

func TestUnevenDistribution(t *testing.T) {
	// 3 I/O nodes over 2 storage nodes: 2+1 split, order preserved.
	tr := NewLayered(
		LayerSpec{Count: 2, CacheChunks: 10, Label: "SN"},
		LayerSpec{Count: 3, CacheChunks: 10, Label: "IO"},
		LayerSpec{Count: 6, CacheChunks: 10, Label: "CN"},
	)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Root.Children[0].Children) != 2 || len(tr.Root.Children[1].Children) != 1 {
		t.Fatal("uneven split wrong")
	}
	if tr.NumClients() != 6 {
		t.Fatalf("NumClients = %d", tr.NumClients())
	}
}

func TestNewLayeredValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":  func() { NewLayered() },
		"zero":   func() { NewLayered(LayerSpec{Count: 0}) },
		"shrink": func() { NewLayered(LayerSpec{Count: 4}, LayerSpec{Count: 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestClientOutOfRangePanics(t *testing.T) {
	tr := figure7()
	defer func() {
		if recover() == nil {
			t.Fatal("Client(99) did not panic")
		}
	}()
	tr.Client(99)
}

func TestCustomTreeBuild(t *testing.T) {
	// A non-uniform hand-built tree: root with one cached child holding 3
	// clients and one holding 1 client.
	left := &Node{Label: "L", CacheChunks: 10, Children: []*Node{
		{Label: "c0", CacheChunks: 5}, {Label: "c1", CacheChunks: 5}, {Label: "c2", CacheChunks: 5},
	}}
	right := &Node{Label: "R", CacheChunks: 10, Children: []*Node{
		{Label: "c3", CacheChunks: 5},
	}}
	tr := Build(&Node{Label: "root", CacheChunks: 20, Children: []*Node{left, right}})
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumClients() != 4 {
		t.Fatalf("NumClients = %d", tr.NumClients())
	}
	if AncestorAt(tr.Client(0), 1) != AncestorAt(tr.Client(2), 1) || AncestorAt(tr.Client(2), 1) == AncestorAt(tr.Client(3), 1) {
		t.Fatal("custom tree affinity wrong")
	}
}

func TestStringOutline(t *testing.T) {
	s := figure7().String()
	if !strings.Contains(s, "SN0") || !strings.Contains(s, "CN3") {
		t.Fatalf("String output missing nodes:\n%s", s)
	}
}

func TestValidateCatchesNegativeCapacity(t *testing.T) {
	tr := Build(&Node{Label: "r", Children: []*Node{{Label: "c", CacheChunks: -1}}})
	if err := tr.Validate(); err == nil {
		t.Fatal("negative capacity not caught")
	}
}

// Property: for random layered trees, two clients share an ancestor at a
// level iff they share it at every level above, and NumLeavesUnder of a
// shared ancestor counts both.
func TestPropertyAffinityConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := 1 + r.Intn(3)
		io := s * (1 + r.Intn(3))
		cn := io * (1 + r.Intn(3))
		tr := NewLayered(
			LayerSpec{Count: s, CacheChunks: 1 + r.Intn(10), Label: "SN"},
			LayerSpec{Count: io, CacheChunks: 1 + r.Intn(10), Label: "IO"},
			LayerSpec{Count: cn, CacheChunks: 1 + r.Intn(10), Label: "CN"},
		)
		if tr.Validate() != nil {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			a, b := tr.Client(r.Intn(cn)), tr.Client(r.Intn(cn))
			shared := false
			for level := tr.Height(); level >= 0; level-- {
				na, nb := AncestorAt(a, level), AncestorAt(b, level)
				if shared && na != nb {
					return false
				}
				if na == nb {
					shared = true
					if tr.NumLeavesUnder(na) < 1 || (a != b && tr.NumLeavesUnder(na) < 2) {
						return false
					}
				}
			}
			if !shared {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
