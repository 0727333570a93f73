package lib

// Reached is called by the program.
func Reached() float64 { return helper() }

func helper() float64 { return 2 }

// Unreached is called by nothing: the one declaration reach must name.
func Unreached() float64 { return helper() }

// Kept is called by nothing either, but a test needs it.
//
//reach:keep reference implementation for a test
func Kept() float64 { return onlyKeptCalls() }

func onlyKeptCalls() float64 { return 3 }
