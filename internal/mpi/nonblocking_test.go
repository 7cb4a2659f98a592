package mpi

import (
	"testing"
)

func TestIsendIrecv(t *testing.T) {
	_, err := Run(Config{Ranks: 2}, func(c *Comm) error {
		if c.Rank() == 0 {
			req, err := c.Isend(1, 5, []float64{7})
			if err != nil {
				return err
			}
			_, err = req.Wait()
			return err
		}
		req, err := c.Irecv(0, 5)
		if err != nil {
			return err
		}
		got, err := req.Wait()
		if err != nil {
			return err
		}
		if got[0] != 7 {
			t.Errorf("Irecv got %v", got)
		}
		// Waiting again returns the same data.
		again, err := req.Wait()
		if err != nil || again[0] != 7 {
			t.Error("second Wait should repeat the outcome")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIrecvPostEarly(t *testing.T) {
	// Post receives before sending: the classic halo-exchange shape.
	const p = 4
	_, err := Run(Config{Ranks: p}, func(c *Comm) error {
		right := (c.Rank() + 1) % p
		left := (c.Rank() + p - 1) % p
		rFromLeft, err := c.Irecv(left, 1)
		if err != nil {
			return err
		}
		rFromRight, err := c.Irecv(right, 2)
		if err != nil {
			return err
		}
		if err := c.Send(right, 1, []float64{float64(c.Rank())}); err != nil {
			return err
		}
		if err := c.Send(left, 2, []float64{float64(c.Rank())}); err != nil {
			return err
		}
		if err := WaitAll(rFromLeft, rFromRight); err != nil {
			return err
		}
		gotL, _ := rFromLeft.Wait()
		gotR, _ := rFromRight.Wait()
		if gotL[0] != float64(left) || gotR[0] != float64(right) {
			t.Errorf("rank %d halo wrong: %v %v", c.Rank(), gotL, gotR)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIrecvInvalidSource(t *testing.T) {
	_, err := Run(Config{Ranks: 2}, func(c *Comm) error {
		if _, err := c.Irecv(7, 0); err == nil {
			t.Error("Irecv from invalid rank must fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitAllNil(t *testing.T) {
	if err := WaitAll(nil); err == nil {
		t.Error("WaitAll(nil) must error")
	}
}
