package fpbench

/** Order statistics for the benchmark's reports. */
object Stats {

  /** Percentile `p` ∈ [0, 1] by linear interpolation between closest ranks
    * (numpy's default): rank `h = (n − 1)·p`.
    */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of an empty sample")
    require(p >= 0 && p <= 1, s"percentile: p=$p out of [0, 1]")
    val s = xs.sorted.toIndexedSeq
    val h = (s.size - 1) * p
    val lo = math.floor(h).toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (h - lo) * (s(hi) - s(lo))
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 0.5)

  def mean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "mean of an empty sample")
    xs.sum / xs.size
  }

  /** Cut points dividing `xs` into `n` groups, with the same numbers as
    * Python's `statistics.quantiles(xs, n=n)` (its default "exclusive"
    * method), so quartiles reported here match ones computed in Python.
    */
  def quantiles(xs: Seq[Double], n: Int = 4): Seq[Double] = {
    require(n >= 1, s"quantiles: n=$n must be >= 1")
    require(xs.size >= 2, "quantiles need at least two data points")
    val s = xs.sorted.toIndexedSeq
    val ld = s.size
    val m = ld + 1
    (1 until n).map { i =>
      val j = math.min(math.max(i * m / n, 1), ld - 1)
      val delta = i * m - j * n
      (s(j - 1) * (n - delta) + s(j) * delta) / n
    }
  }
}
