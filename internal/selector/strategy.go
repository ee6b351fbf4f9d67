package selector

import (
	"math"

	"dynamast/internal/vclock"
)

// Weights are the hyperparameters of the remastering benefit model
// (Equation 8). The defaults below are the values the paper selected per
// workload (Appendix H).
type Weights struct {
	Balance  float64 // w_balance: load-balance factor (Eq. 2-4)
	Delay    float64 // w_delay: refresh-delay factor (Eq. 5)
	IntraTxn float64 // w_intra_txn: intra-transaction localization (Eq. 6)
	InterTxn float64 // w_inter_txn: inter-transaction localization (Eq. 7)
}

// YCSBWeights are the paper's YCSB hyperparameters: load balance dominates,
// intra-transaction locality second, inter-transaction unused because the
// intra feature already captures partition relationships.
func YCSBWeights() Weights { return Weights{Balance: 1e6, Delay: 0.5, IntraTxn: 3, InterTxn: 0} }

// TPCCWeights follow the paper's TPC-C calibration: locality dominates
// (intra = inter = 0.88, near the probability that a transaction stays
// within one warehouse) and balance is the smallest balance weight of the
// three workloads — just enough that mastership never collapses onto one
// site. The absolute balance value is rescaled from the paper's 0.01 to
// this implementation's feature magnitudes (feature scales depend on
// normalization details the paper does not pin down); the paper's ordering
// w_balance(YCSB) >> w_balance(SmallBank) >> w_balance(TPC-C) is
// preserved.
func TPCCWeights() Weights {
	return Weights{Balance: 3, Delay: 0.05, IntraTxn: 0.88, InterTxn: 0.88}
}

// SmallBankWeights follow the paper's SmallBank calibration: as YCSB but
// with the balance weight lowered (short transactions place less load, so
// locality matters comparatively more). Rescaled to this implementation's
// feature magnitudes like TPCCWeights; the cross-workload ordering
// w_balance(YCSB) > w_balance(SmallBank) > w_balance(TPC-C) is the paper's.
func SmallBankWeights() Weights {
	return Weights{Balance: 1e4, Delay: 0.5, IntraTxn: 3, InterTxn: 0}
}

// BalanceDist is f_balance_dist (Equation 2): the distance of a mastership
// allocation from perfect write-load balance, computed as the square of
// the summed absolute deviations of each site's write-request fraction
// from 1/m. Zero means perfectly balanced; a fully collapsed allocation
// over m sites scores (2(m-1)/m)^2, so imbalance grows superlinearly —
// which (together with Equation 3's exp scaling) is what stops the
// co-location features from ever merging all mastership onto one site.
// An all-zero load is treated as balanced.
func BalanceDist(load []float64) float64 {
	m := len(load)
	if m == 0 {
		return 0
	}
	var total float64
	for _, l := range load {
		total += l
	}
	if total == 0 {
		return 0
	}
	var sum float64
	for _, l := range load {
		d := 1/float64(m) - l/total
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum * sum
}

// BalanceFactor is f_balance (Equations 3-4) for remastering to a candidate
// whose projected per-site load is after, from the current load before:
// the change in balance distance scaled by the exponential of the worse of
// the two distances, so correcting a badly unbalanced system outweighs
// mildly unbalancing a balanced one.
func BalanceFactor(before, after []float64) float64 {
	db := BalanceDist(before)
	da := BalanceDist(after)
	delta := db - da
	rate := math.Max(db, da)
	return delta * math.Exp(rate)
}

// RefreshDelay is f_refresh_delay (Equation 5) as a benefit contribution:
// the negated number of updates candidate site svvS must still apply to
// reach the element-wise max of the client's session vector and the
// releasing sites' vectors. Zero when the candidate is fully caught up;
// more negative the further it lags.
func RefreshDelay(need, svvS vclock.Vector) float64 {
	return -float64(svvS.LagBehind(need))
}

// Benefit combines the four features with the model weights (Equation 8).
func (w Weights) Benefit(balance, delay, intra, inter float64) float64 {
	return w.Balance*balance + w.Delay*delay + w.IntraTxn*intra + w.InterTxn*inter
}
