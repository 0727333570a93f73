package lib

// Shape is what the program calls Area through.
type Shape interface {
	Area() float64
}

// Square implements Shape; nothing names Square.Area directly.
type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

// Grow is called by the program.
func (s Square) Grow(k float64) Square { return Square{s.Side * k} }

// Circle is reached, but implements no interface anything calls through.
type Circle struct{ R float64 }

// Grow shares the live Square.Grow's name but nothing calls it: reach must
// name it.
func (c Circle) Grow(k float64) Circle { return Circle{c.R * k} }
