package fpbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("percentile interpolates linearly between closest ranks") {
    assert(math.abs(Stats.percentile(Seq(1.0, 2, 3, 4, 10), 0.9) - 7.6) < 1e-12)
    assert(Stats.percentile(Seq(5.0, 1, 3), 0.5) == 3.0)
    assert(Stats.percentile((1 to 10).map(_.toDouble), 0.25) == 3.25)
    assert(Stats.percentile(Seq(4.0), 0.9) == 4.0)
    assert(Stats.median(Seq(2.0, 8, 4, 6)) == 5.0)
  }

  test("percentile rejects an empty sample and p outside [0, 1]") {
    intercept[IllegalArgumentException](Stats.percentile(Nil, 0.5))
    intercept[IllegalArgumentException](Stats.percentile(Seq(1.0), 1.5))
  }

  test("quartiles match Python's statistics.quantiles(n=4)") {
    assert(Stats.quantiles((1 to 10).map(_.toDouble)) == Seq(2.75, 5.5, 8.25))
    assert(Stats.quantiles(Seq(1.0, 2.0)) == Seq(0.75, 1.5, 2.25))
    assert(Stats.quantiles(Seq(3.0, 1.0, 4.0, 1.5, 9.0)) == Seq(1.25, 3.0, 6.5))
  }

  test("quantiles need two points") {
    intercept[IllegalArgumentException](Stats.quantiles(Seq(1.0)))
  }
}
