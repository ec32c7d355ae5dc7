// Package dataset generates the synthetic equivalents of the paper's five
// evaluation workloads (Table 1). The originals (UCI Bio/Covertype/
// Physics, a Barrett WAM robot-arm log, and the Tiny Images descriptors)
// are not redistributable here, so each generator reproduces what actually
// matters for RBC behaviour: the ambient dimension and the *intrinsic*
// dimension (expansion rate) ordering of the originals — covertype lowest,
// physics highest.
//
// All generators are deterministic in (n, seed).
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/vec"
)

// Paper dimensions (Table 1).
const (
	BioDim       = 74
	CovertypeDim = 54
	PhysicsDim   = 78
	RobotDim     = 21
)

// Paper dataset sizes (Table 1), used as the scale=1 reference.
const (
	BioN       = 200_000
	CovertypeN = 500_000
	PhysicsN   = 100_000
	RobotN     = 2_000_000
	TinyImN    = 10_000_000
)

// UniformCube draws n points uniformly from [0,1]^dim — the worst case
// for intrinsic-dimension methods (c grows with dim).
func UniformCube(n, dim int, seed int64) *vec.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := vec.New(dim, n)
	row := make([]float32, dim)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = rng.Float32()
		}
		d.Append(row)
	}
	return d
}

// GaussianClusters draws n points from k spherical Gaussian clusters with
// the given in-cluster standard deviation; centers are spread in
// [-10,10]^dim. Low k and small spread give low intrinsic dimension.
func GaussianClusters(n, dim, k int, spread float64, seed int64) *vec.Dataset {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = rng.Float64()*20 - 10
		}
	}
	d := vec.New(dim, n)
	row := make([]float32, dim)
	for i := 0; i < n; i++ {
		c := centers[rng.Intn(k)]
		for j := range row {
			row[j] = float32(c[j] + rng.NormFloat64()*spread)
		}
		d.Append(row)
	}
	return d
}

// Manifold embeds an intrinsically latentDim-dimensional point set into
// ambientDim dimensions through a random smooth nonlinear map (a random
// Fourier-feature style expansion), plus isotropic observation noise. This
// is the generic "looks high-dimensional, is governed by a few parameters"
// structure the intrinsic-dimensionality literature studies.
func Manifold(n, latentDim, ambientDim int, noise float64, seed int64) *vec.Dataset {
	rng := rand.New(rand.NewSource(seed))
	// Random map: y_j = a_j * sin(<w_j, z> + b_j), frequencies O(1) so the
	// map is smooth (bi-Lipschitz on the latent cube w.h.p.).
	w := make([][]float64, ambientDim)
	b := make([]float64, ambientDim)
	a := make([]float64, ambientDim)
	for j := 0; j < ambientDim; j++ {
		w[j] = make([]float64, latentDim)
		for l := range w[j] {
			w[j][l] = rng.NormFloat64()
		}
		b[j] = rng.Float64() * 2 * math.Pi
		a[j] = 0.5 + rng.Float64()
	}
	d := vec.New(ambientDim, n)
	row := make([]float32, ambientDim)
	z := make([]float64, latentDim)
	for i := 0; i < n; i++ {
		for l := range z {
			z[l] = rng.Float64() * 2
		}
		for j := 0; j < ambientDim; j++ {
			dot := b[j]
			for l := range z {
				dot += w[j][l] * z[l]
			}
			row[j] = float32(a[j]*math.Sin(dot) + rng.NormFloat64()*noise)
		}
		d.Append(row)
	}
	return d
}

// Bio mimics the UCI Bio benchmark: 74 ambient dimensions of correlated
// protein-homology features with moderate intrinsic dimension — above
// covertype, below physics, matching the orderings reported for the UCI
// trio.
func Bio(n int, seed int64) *vec.Dataset {
	return Manifold(n, 6, BioDim, 0.02, seed^0xb10)
}

// Covertype mimics the UCI Covertype benchmark: 54 ambient dimensions
// with very low intrinsic dimension (the paper notes its low intrinsic
// dimensionality as the reason the cover tree wins on it). We use a
// 4-dimensional latent space and quantize a block of coordinates to
// mirror its many categorical/binary columns.
func Covertype(n int, seed int64) *vec.Dataset {
	d := Manifold(n, 4, CovertypeDim, 0.01, seed^0xc04e)
	// Quantize the last 44 coordinates to two levels, like the soil-type
	// and wilderness-area indicator columns of the original.
	for i := 0; i < d.N(); i++ {
		row := d.Row(i)
		for j := 10; j < CovertypeDim; j++ {
			if row[j] > 0 {
				row[j] = 1
			} else {
				row[j] = 0
			}
		}
	}
	return d
}

// Physics mimics the UCI Physics (quantum physics) benchmark: 78 ambient
// dimensions, the highest intrinsic dimension of the UCI trio.
func Physics(n int, seed int64) *vec.Dataset {
	return Manifold(n, 8, PhysicsDim, 0.05, seed^0x9127)
}

// Robot simulates the Barrett WAM inverse-dynamics workload: a 7-joint
// arm following smooth excitation trajectories. Each sample is the
// 21-dimensional tuple (q, q̇, τ) of joint angles, velocities and torques
// from a toy rigid-body model — intrinsically low-dimensional because the
// trajectories are smooth functions of time and a few phase parameters.
func Robot(n int, seed int64) *vec.Dataset {
	rng := rand.New(rand.NewSource(seed ^ 0x40b07))
	const joints = 7
	d := vec.New(RobotDim, n)

	// A handful of excitation trajectories. All joints of a trajectory
	// share one base frequency (with harmonics 1f, 2f, 3f), so each
	// trajectory is a closed one-dimensional loop in state space — the
	// low-intrinsic-dimension structure that makes real robot logs
	// index-friendly. Incommensurate per-joint frequencies would instead
	// wind densely around a 7-torus and destroy that structure.
	const (
		trajectories = 12
		harmonics    = 3
	)
	type traj struct {
		baseFreq   float64
		amp, phase [joints][harmonics]float64
	}
	trajs := make([]traj, trajectories)
	for t := range trajs {
		trajs[t].baseFreq = 0.2 + rng.Float64()*0.4 // Hz
		for j := 0; j < joints; j++ {
			for h := 0; h < harmonics; h++ {
				trajs[t].amp[j][h] = (rng.Float64() - 0.5) * 2 / float64(h+1)
				trajs[t].phase[j][h] = rng.Float64() * 2 * math.Pi
			}
		}
	}
	// Toy dynamics constants per joint: inertia, viscous friction, gravity
	// loading (decreasing along the chain, as on a real arm).
	var inertia, viscous, gravity [joints]float64
	for j := 0; j < joints; j++ {
		inertia[j] = 2.5 / float64(j+1)
		viscous[j] = 0.4 + 0.1*float64(j)
		gravity[j] = 9.81 * (1.5 - 0.18*float64(j))
	}
	// Feature scaling keeps the three blocks (rad, rad/s, Nm) at
	// comparable magnitude so no block dominates the Euclidean metric.
	const velScale, tauScale = 0.15, 0.02

	row := make([]float32, RobotDim)
	for i := 0; i < n; i++ {
		tr := &trajs[rng.Intn(trajectories)]
		tm := rng.Float64() * 20 // seconds along the trajectory
		for j := 0; j < joints; j++ {
			var q, qd, qdd float64
			for h := 0; h < harmonics; h++ {
				w := 2 * math.Pi * tr.baseFreq * float64(h+1)
				arg := w*tm + tr.phase[j][h]
				q += tr.amp[j][h] * math.Sin(arg)
				qd += tr.amp[j][h] * w * math.Cos(arg)
				qdd += -tr.amp[j][h] * w * w * math.Sin(arg)
			}
			tau := inertia[j]*qdd + viscous[j]*qd + gravity[j]*math.Sin(q)
			row[j] = float32(q)
			row[joints+j] = float32(qd * velScale)
			row[2*joints+j] = float32(tau * tauScale)
		}
		d.Append(row)
	}
	return d
}

// TinyImages mimics the Tiny Images descriptor workload: synthetic
// natural-image-like 16×16 patches (1/f amplitude spectrum, the standard
// natural-image statistics model) whose 256-dim pixel vectors are reduced
// to outDim ∈ {4,8,16,32} dimensions by random projection — the same
// preprocessing pipeline the paper applies.
func TinyImages(n, outDim int, seed int64) *vec.Dataset {
	if outDim <= 0 {
		panic(fmt.Sprintf("dataset: TinyImages outDim %d must be positive", outDim))
	}
	raw := tinyPatches(n, seed^0x717179)
	return RandomProjection(raw, outDim, seed^0x9e3779b9)
}

const tinyPatchSide = 16

// tinyPatches synthesizes n patches with 1/f spectra as flat 256-dim rows.
func tinyPatches(n int, seed int64) *vec.Dataset {
	rng := rand.New(rand.NewSource(seed))
	dim := tinyPatchSide * tinyPatchSide
	d := vec.New(dim, n)
	row := make([]float32, dim)
	// Few enough spectral components that the patch manifold has modest
	// intrinsic dimension (real image descriptors do), so the projected
	// tiny16/tiny32 sets retain indexable structure.
	const components = 8
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = 0
		}
		for c := 0; c < components; c++ {
			// Frequencies drawn with density favoring low f; amplitude 1/f.
			fx := rng.Float64() * 4
			fy := rng.Float64() * 4
			f := math.Hypot(fx, fy) + 0.5
			amp := 1 / f
			phase := rng.Float64() * 2 * math.Pi
			for y := 0; y < tinyPatchSide; y++ {
				for x := 0; x < tinyPatchSide; x++ {
					v := amp * math.Cos(2*math.Pi*(fx*float64(x)+fy*float64(y))/tinyPatchSide+phase)
					row[y*tinyPatchSide+x] += float32(v)
				}
			}
		}
		d.Append(row)
	}
	return d
}

// RandomProjection maps the dataset to outDim dimensions with a Gaussian
// random matrix scaled by 1/√outDim — the Johnson–Lindenstrauss transform
// the paper uses to preprocess TinyIm (footnote 3). Pairwise distances
// are preserved up to (1±ε) with high probability.
func RandomProjection(d *vec.Dataset, outDim int, seed int64) *vec.Dataset {
	if outDim <= 0 {
		panic(fmt.Sprintf("dataset: projection outDim %d must be positive", outDim))
	}
	rng := rand.New(rand.NewSource(seed))
	inDim := d.Dim
	// proj is outDim x inDim, row-major.
	proj := make([]float64, outDim*inDim)
	scale := 1 / math.Sqrt(float64(outDim))
	for i := range proj {
		proj[i] = rng.NormFloat64() * scale
	}
	out := vec.New(outDim, d.N())
	row := make([]float32, outDim)
	for i := 0; i < d.N(); i++ {
		x := d.Row(i)
		for o := 0; o < outDim; o++ {
			var s float64
			prow := proj[o*inDim : (o+1)*inDim]
			for j, v := range x {
				s += prow[j] * float64(v)
			}
			row[o] = float32(s)
		}
		out.Append(row)
	}
	return out
}
