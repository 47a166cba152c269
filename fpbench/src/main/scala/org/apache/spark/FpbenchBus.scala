package org.apache.spark

/** Access to Spark's listener bus, which is package-private: the benchmark
  * waits until every event of a call has been delivered to its listeners
  * before it reads the counts they recorded.
  */
object FpbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
