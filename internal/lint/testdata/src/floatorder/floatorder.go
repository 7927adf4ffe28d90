// Package floatorder exercises the scheduling-ordered float reduction
// analyzer. Pool stands in for the runner's completion-callback surface.
package floatorder

type Pool struct {
	OnResult func(float64)
}

// SumChan folds values in receive order.
func SumChan(ch chan float64, n int) float64 {
	var s float64
	for i := 0; i < n; i++ {
		s += <-ch // want "channel receive order"
	}
	return s
}

// SumRange folds a ranged channel.
func SumRange(ch chan float64) float64 {
	var s float64
	for v := range ch {
		s += v // want "channel receive order"
	}
	return s
}

// CountChan sums integers: addition commutes, clean.
func CountChan(ch chan int, n int) int {
	var c int
	for i := 0; i < n; i++ {
		c += <-ch
	}
	return c
}

// SumSlice folds in slice order: fixed, clean.
func SumSlice(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s
}

// SumGoroutines accumulates into captured state from spawned
// goroutines: completion order decides operand order.
func SumGoroutines(fs []func() float64) float64 {
	var sum float64
	done := make(chan struct{})
	for _, f := range fs {
		f := f
		go func() {
			sum += f() // want "goroutine completion"
			done <- struct{}{}
		}()
	}
	for range fs {
		<-done
	}
	return sum
}

// SumCallback accumulates into captured state from a completion
// callback.
func SumCallback(p *Pool) func() float64 {
	var total float64
	p.OnResult = func(v float64) {
		total += v // want "goroutine completion"
	}
	return func() float64 { return total }
}

// LocalAccum reduces into the goroutine's own local in a fixed order:
// clean.
func LocalAccum(fs []func() float64, out chan float64) {
	for _, f := range fs {
		f := f
		go func() {
			var s float64
			for i := 0; i < 3; i++ {
				s += f()
			}
			out <- s
		}()
	}
}

// SumCallbackLiteral sets the completion callback in a composite
// literal: the same completion-ordered reduction.
func SumCallbackLiteral() (*Pool, *float64) {
	var total float64
	p := &Pool{OnResult: func(v float64) {
		total += v // want "goroutine completion"
	}}
	return p, &total
}

// SumChanLong spells the accumulation out as s = s + <-ch.
func SumChanLong(ch chan float64, n int) float64 {
	var s float64
	for i := 0; i < n; i++ {
		s = s + <-ch // want "channel receive order"
	}
	return s
}

// SumConverted folds converted receives.
func SumConverted(ch chan int) float64 {
	var s float64
	for v := range ch {
		s += float64(v) // want "channel receive order"
	}
	return s
}
