package mem

import (
	"math/rand"
	"testing"
)

func TestLRUVictimIsLeastRecentlyTouched(t *testing.T) {
	p := NewLRU(1, 4)
	for w := 0; w < 4; w++ {
		p.Touch(0, w)
	}
	p.Touch(0, 0) // order now: 1 (oldest), 2, 3, 0
	if got := p.Victim(0); got != 1 {
		t.Errorf("Victim = %d, want 1", got)
	}
	p.Touch(0, 1)
	if got := p.Victim(0); got != 2 {
		t.Errorf("Victim = %d, want 2", got)
	}
}

func TestLRUVictimRespectsRange(t *testing.T) {
	p := NewLRU(1, 8)
	for w := 0; w < 8; w++ {
		p.Touch(0, w)
	}
	// Way 0 is globally oldest, but the partition only allows [4,8).
	if got := p.VictimMask(0, ContiguousMask(4, 8)); got != 4 {
		t.Errorf("Victim in [4,8) = %d, want 4", got)
	}
}

func TestLRUSetsAreIndependent(t *testing.T) {
	p := NewLRU(2, 2)
	p.Touch(0, 0)
	p.Touch(0, 1)
	p.Touch(1, 1)
	p.Touch(1, 0)
	if got := p.Victim(0); got != 0 {
		t.Errorf("set 0 victim = %d, want 0", got)
	}
	if got := p.Victim(1); got != 1 {
		t.Errorf("set 1 victim = %d, want 1", got)
	}
}

func TestTreePLRUNeverVictimizesMostRecent(t *testing.T) {
	p := NewTreePLRU(1, 8)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		w := rng.Intn(8)
		p.Touch(0, w)
		if v := p.Victim(0); v == w {
			t.Fatalf("iteration %d: PLRU victimized the just-touched way %d", i, w)
		}
	}
}

func TestTreePLRUVictimInRange(t *testing.T) {
	p := NewTreePLRU(4, 16)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		set := rng.Intn(4)
		p.Touch(set, rng.Intn(16))
		if v := p.Victim(set); v < 0 || v >= 16 {
			t.Fatalf("victim %d out of range", v)
		}
		if v := p.VictimMask(set, ContiguousMask(4, 12)); v < 4 || v >= 12 {
			t.Fatalf("partitioned victim %d outside [4,12)", v)
		}
	}
}

func TestTreePLRUPanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTreePLRU(1, 6) did not panic")
		}
	}()
	NewTreePLRU(1, 6)
}

func TestRandomPolicyVictimInRangeAndDeterministic(t *testing.T) {
	p1 := NewRandomPolicy(16, 99)
	p2 := NewRandomPolicy(16, 99)
	mask := ContiguousMask(2, 10)
	for i := 0; i < 500; i++ {
		v1 := p1.VictimMask(0, mask)
		v2 := p2.VictimMask(0, mask)
		if v1 != v2 {
			t.Fatalf("same-seed random policies diverged at %d: %d vs %d", i, v1, v2)
		}
		if v1 < 2 || v1 >= 10 {
			t.Fatalf("victim %d outside [2,10)", v1)
		}
	}
}

func TestPolicyNames(t *testing.T) {
	cases := []struct {
		p    Policy
		want string
	}{
		{NewLRU(1, 2), "lru"},
		{NewTreePLRU(1, 2), "tree-plru"},
		{NewRandomPolicy(2, 1), "random"},
	}
	for _, c := range cases {
		if got := c.p.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}
