package fpbench

import org.scalatest.funsuite.AnyFunSuite

class SpanSpec extends AnyFunSuite {

  private def span(id: Int, parent: Int, start: Long, end: Long) =
    Span(id, s"s$id", parent, task = 0, start, end)

  test("self time subtracts the children's covered interval") {
    val spans = Seq(span(0, -1, 0, 100), span(1, 0, 10, 30), span(2, 0, 50, 60), span(3, 1, 12, 20))
    val self = Span.selfTimes(spans)
    assert(self(0) == 100 - 20 - 10)
    assert(self(1) == 20 - 8)
    assert(self(2) == 10)
    assert(self(3) == 8)
  }

  test("overlapping children are counted once and clipped to the parent") {
    val spans = Seq(span(0, -1, 0, 100), span(1, 0, 10, 40), span(2, 0, 30, 50), span(3, 0, 90, 120))
    assert(Span.selfTimes(spans)(0) == 100 - 40 - 10)
  }

  test("inclusive Spark work adds descendants' work to each span") {
    val spans = Seq(span(0, -1, 0, 100), span(1, 0, 10, 30), span(2, 1, 12, 20), span(3, -1, 200, 300))
    val own = Map(0 -> SparkWork(jobs = 1), 2 -> SparkWork(jobs = 2, tasks = 8, execRunMs = 5),
                  3 -> SparkWork(stages = 4))
    val inc = Tracer.inclusive(spans, own)
    assert(inc(0) == SparkWork(jobs = 3, tasks = 8, execRunMs = 5))
    assert(inc(1) == SparkWork(jobs = 2, tasks = 8, execRunMs = 5))
    assert(inc(3) == SparkWork(stages = 4))
  }
}
