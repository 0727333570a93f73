package lib

// Shape is what the program calls Area through.
type Shape interface {
	Area() float64
}

// Square implements Shape; nothing names Square.Area directly.
type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }
