package lib

import "sync"

// Reached is called by the program.
func Reached() float64 { return helper() }

func helper() float64 { return 2 }

// Unreached is called by nothing: a declaration reach must name.
func Unreached() float64 { return helper() }

// Kept is called by nothing either, but a test needs it.
//
//reach:keep reference implementation for TestKept
func Kept() float64 { return onlyKeptCalls() }

func onlyKeptCalls() float64 { return 3 }

// Stale is kept for a test that no longer exists: reach must name the keep.
//
//reach:keep oracle of TestGone
func Stale() float64 { return 4 }

// Counter's fields are each written in one indirect way by Bump, except
// Debug, which only a test sets.
type Counter struct {
	N     int        // written only through &c.N
	Buf   [4]byte    // written only by slicing the array
	Mu    sync.Mutex // written only by calling a pointer method on it
	Debug bool       // set by lib_test.go alone: reach must name it
}

func (c *Counter) Bump() int {
	p := &c.N
	*p++
	b := append(c.Buf[:0], 1)
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if c.Debug {
		return 0
	}
	return *p + len(b)
}
