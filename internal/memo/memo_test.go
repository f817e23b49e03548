package memo

import (
	"sync"
	"testing"
	"unsafe"
)

// TestTableEviction: a shard at its budget drops half its entries, reports
// how many, never holds more than the budget, and keeps the entry just
// inserted.
func TestTableEviction(t *testing.T) {
	var tab Table[int, int]
	const budget = 100
	total := 0
	// Hashes i<<6 all select shard 0 (low six bits zero, high word zero).
	for i := 0; i < 3*budget; i++ {
		evicted := tab.Put(uint64(i)<<6, i, i, budget)
		switch {
		case i < budget && evicted != 0:
			t.Fatalf("put %d evicted %d below the budget", i, evicted)
		case i == budget && evicted != budget/2:
			t.Fatalf("first put past the budget evicted %d, want %d", evicted, budget/2)
		}
		total += evicted
		if v, ok := tab.Get(uint64(i)<<6, i); !ok || v != i {
			t.Fatalf("entry %d missing immediately after insert", i)
		}
		if n := tab.Len(); n > budget || n != i+1-total {
			t.Fatalf("after put %d: Len = %d, want %d and at most %d", i, n, i+1-total, budget)
		}
	}
	if n := tab.Len(); n < budget/2 {
		t.Fatalf("eviction dropped too much: %d entries < %d", n, budget/2)
	}
}

// TestTableZeroValueAndLen: an unused table answers misses, and Len counts
// entries across shards, with a repeated key stored once.
func TestTableZeroValueAndLen(t *testing.T) {
	var tab Table[string, int]
	if v, ok := tab.Get(7, "a"); ok || v != 0 {
		t.Fatalf("zero table Get = %d, %v; want a miss", v, ok)
	}
	if n := tab.Len(); n != 0 {
		t.Fatalf("zero table Len = %d", n)
	}
	for h := uint64(0); h < 200; h++ {
		tab.Put(h, string(rune('a'+h%26))+string(rune('a'+h/26)), int(h), 8)
	}
	tab.Put(3, "da", 99, 8) // h=3 stored "da"; same key, same shard
	if n := tab.Len(); n != 200 {
		t.Fatalf("Len = %d, want 200", n)
	}
	if v, ok := tab.Get(3, "da"); !ok || v != 99 {
		t.Fatalf("overwritten entry = %d, %v; want 99", v, ok)
	}
	if _, ok := tab.Get(4, "da"); ok {
		t.Fatal("key found through another hash's shard")
	}
}

type key struct {
	hash uint64
	n    int
}

// TestTableGetAllocs: a hit and a miss allocate nothing, struct keys
// included.
func TestTableGetAllocs(t *testing.T) {
	var tab Table[key, []byte]
	tab.Put(1, key{1, 2}, []byte("v"), 16)
	var sink int
	if n := testing.AllocsPerRun(100, func() {
		v, _ := tab.Get(1, key{1, 2})
		if _, ok := tab.Get(2, key{2, 2}); ok {
			sink++
		}
		sink += len(v)
	}); n != 0 {
		t.Errorf("Get allocates %v times per call, want 0", n)
	}
}

// TestTableConcurrent drives Get and Put from 8 goroutines across every
// shard, with a small budget so eviction runs too, for the race detector.
func TestTableConcurrent(t *testing.T) {
	var tab Table[uint64, uint64]
	const budget = 16
	var wg sync.WaitGroup
	for g := uint64(0); g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < 5000; i++ {
				h := i*8 + g
				tab.Put(h, h, h*3, budget)
				if v, ok := tab.Get(h, h); ok && v != h*3 {
					t.Errorf("Get(%d) = %d, want %d", h, v, h*3)
					return
				}
				tab.Get(h/2, h/2)
			}
		}()
	}
	wg.Wait()
	if n := tab.Len(); n > shards*budget {
		t.Fatalf("Len = %d exceeds %d shards × budget %d", n, shards, budget)
	}
}

// TestTableLazyShards: a zero table is one pointer wide, and asking it
// allocates nothing and installs no shards; the first Put does.
func TestTableLazyShards(t *testing.T) {
	var tab Table[key, []byte]
	if got, want := unsafe.Sizeof(tab), unsafe.Sizeof(uintptr(0)); got != want {
		t.Fatalf("zero Table is %d bytes, want one pointer (%d)", got, want)
	}
	var sink int
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := tab.Get(1, key{1, 2}); ok {
			sink++
		}
		sink += tab.Len()
	}); n != 0 {
		t.Errorf("Get and Len on an empty table allocate %v times, want 0", n)
	}
	if tab.shards.Load() != nil {
		t.Fatal("Get or Len installed the shard array")
	}
	tab.Put(1, key{1, 2}, []byte("v"), 16)
	if tab.shards.Load() == nil || tab.Len() != 1 {
		t.Fatalf("after Put: shards installed %v, Len %d; want true, 1", tab.shards.Load() != nil, tab.Len())
	}
}

// TestTableConcurrentFirstPut: 8 goroutines racing to put into an empty
// table settle on one shard array, so no put is lost to an array that
// lost the race.
func TestTableConcurrentFirstPut(t *testing.T) {
	const goroutines = 8
	var tab Table[uint64, uint64]
	var start, done sync.WaitGroup
	start.Add(1)
	for g := uint64(0); g < goroutines; g++ {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			tab.Put(g, g, g*3, 16)
		}()
	}
	start.Done()
	done.Wait()
	if n := tab.Len(); n != goroutines {
		t.Fatalf("Len = %d after %d first puts, want %d", n, goroutines, goroutines)
	}
	for g := uint64(0); g < goroutines; g++ {
		if v, ok := tab.Get(g, g); !ok || v != g*3 {
			t.Fatalf("Get(%d) = %d, %v; want %d", g, v, ok, g*3)
		}
	}
}
