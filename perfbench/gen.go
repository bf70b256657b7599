package main

import (
	"math/rand"
	"strconv"
	"strings"
)

// mixture is a generated labelled dataset and its CSV encoding (features
// then the integer label, every float at full precision so a ReadCSV of
// it reproduces the rows bit for bit).
type mixture struct {
	x   [][]float64
	y   []int
	csv string
}

// centerSeed fixes the mixture's class centres. The workload seed draws
// the points, the supervision and the order, so every seed yields a new
// sample of the same mixture and the cost of a run does not depend on
// where one seed happened to place the classes.
const centerSeed = 20140324

// genMixture draws n rows of an overlapping Gaussian mixture with the
// given dimension and class count. Class k has spread 0.6 + 0.35·k around
// a centre drawn once from N(0, 2²) per coordinate, so the classes overlap
// unevenly and no clustering parameter wins trivially. Rows are shuffled.
func genMixture(seed int64, n, d, classes int) mixture {
	cr := rand.New(rand.NewSource(centerSeed))
	centers := make([][]float64, classes)
	for k := range centers {
		centers[k] = make([]float64, d)
		for j := range centers[k] {
			centers[k][j] = 2 * cr.NormFloat64()
		}
	}
	r := rand.New(rand.NewSource(seed))
	m := mixture{x: make([][]float64, n), y: make([]int, n)}
	for i := 0; i < n; i++ {
		k := i % classes
		spread := 0.6 + 0.35*float64(k)
		row := make([]float64, d)
		for j := range row {
			row[j] = centers[k][j] + spread*r.NormFloat64()
		}
		m.x[i], m.y[i] = row, k
	}
	r.Shuffle(n, func(i, j int) {
		m.x[i], m.x[j] = m.x[j], m.x[i]
		m.y[i], m.y[j] = m.y[j], m.y[i]
	})
	m.csv = csvRows(m.x, m.y)
	return m
}

// csvRows encodes rows with their labels as CSV without a header.
func csvRows(x [][]float64, y []int) string {
	var b strings.Builder
	for i, row := range x {
		for _, v := range row {
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(y[i]))
		b.WriteByte('\n')
	}
	return b.String()
}
