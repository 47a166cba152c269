package repro.data

/** Column metadata for the synthetic ad-traffic relation produced by
  * [[repro.SynthData.adTraffic]].
  *
  * The paper's dataset (UserProfile ⋈ AdTraffic from Alibaba's advertising
  * system) has 11 user-profile dimensions used to filter, 4 integer measures
  * to forecast, and a day-granularity time stamp. This object is the single
  * source of truth for those column names so samplers, the estimator, PIM,
  * and the task generator never drift apart.
  */
object AdSchema {

  /** Day index column (discrete time, 0-based). */
  val TimeCol = "t"

  /** The 11 filter dimensions, mirroring the paper's Age / Gender /
    * Occupation / city / device / machine-learned interest tags.
    */
  val Dimensions: Seq[String] = Seq(
    "age", "gender", "occupation", "city", "device",
    "tag_sports", "tag_cartoon", "tag_fashion", "tag_tech", "tag_travel", "tag_food",
  )

  /** The 4 measures evaluated in the paper, in its Table-1 order. All are
    * positive integers (counts) so exact SUMs are integer-exact in both
    * Spark and the DuckDB oracle.
    */
  val Measures: Seq[String] = Seq("favorite", "impression", "click", "cart")
}
