package metric

// This file implements the exact Euclidean grade: squared l2 ordering
// distances accumulated in four independent float64 lanes (lane l takes
// dims ≡ l mod 4; tail dims fold into lane 0 in index order; the result
// is ((s0+s1)+s2)+s3). That lane order is the grade's definition — every
// reported distance in the system is this sum, bit for bit — and it has
// two spellings: the scalar loop euclidExactPair, and the AVX2 bodies in
// exact_amd64.s whose four packed-double lanes are s0..s3 (the identity
// argument is in that file's header). Rows are scored four at a time so
// the AVX2 bodies have four independent accumulator chains; the ≤ 3
// remainder rows, and every row on a host without AVX2, take the scalar
// loop.

// euclidExactRows writes the exact ordering distances from q to every
// row of flat: the row kernel behind Euclidean.OrderingDistances.
func euclidExactRows(q, flat []float32, dim int, out []float64) {
	q, flat = q[:dim], flat[:len(out)*dim] // the asm reads through raw pointers
	i := 0
	if useExactAsm && dim > 0 {
		for ; i+4 <= len(out); i += 4 {
			exactQuadAsm(&q[0], &flat[i*dim], dim, &out[i])
		}
	}
	for ; i < len(out); i++ {
		out[i] = euclidExactPair(q, flat[i*dim:(i+1)*dim])
	}
}

// euclidExactTile writes the nq×np exact ordering tile, reading the
// float32 rows in place. Query rows go through the AVX2 body two at a
// time, sharing each widened point row; an odd last query (and every
// query without AVX2) is a euclidExactRows scan. Per-pair arithmetic is
// the same whichever form scores the pair, so Tile ≡ Ordering bit for
// bit at every shape.
func euclidExactTile(qflat, pflat []float32, dim, nq, np int, out []float64) {
	i := 0
	if useExactAsm {
		pflat := pflat[:np*dim] // the asm reads through raw pointers
		for ; i+2 <= nq; i += 2 {
			q0, q1 := qflat[i*dim:(i+1)*dim], qflat[(i+1)*dim:(i+2)*dim]
			o0, o1 := out[i*np:(i+1)*np], out[(i+1)*np:(i+2)*np]
			j := 0
			for ; j+4 <= np; j += 4 {
				exactQuad2Asm(&q0[0], &q1[0], &pflat[j*dim], dim, &o0[j], &o1[j])
			}
			for ; j < np; j++ {
				p := pflat[j*dim : (j+1)*dim]
				o0[j] = euclidExactPair(q0, p)
				o1[j] = euclidExactPair(q1, p)
			}
		}
	}
	for ; i < nq; i++ {
		euclidExactRows(qflat[i*dim:(i+1)*dim], pflat, dim, out[i*np:(i+1)*np])
	}
}

// euclidExactPair is the scalar reference of the exact grade for one
// (query, row) pair: the remainder-row path, the whole path on hosts
// without AVX2, Euclidean.Distance under its sqrt, and what the tests
// hold every other spelling against.
func euclidExactPair(q, row []float32) float64 {
	var s0, s1, s2, s3 float64
	j := 0
	for ; j+4 <= len(q); j += 4 {
		d0 := float64(q[j]) - float64(row[j])
		d1 := float64(q[j+1]) - float64(row[j+1])
		d2 := float64(q[j+2]) - float64(row[j+2])
		d3 := float64(q[j+3]) - float64(row[j+3])
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; j < len(q); j++ {
		d := float64(q[j]) - float64(row[j])
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}
